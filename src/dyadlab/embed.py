"""Stopping cubes, Carleson sums, and the two embedding verifiers.

Everything here runs on the standard dyadic tree of the weight's own
lattice, truncated at its depth, so no check takes a grid.  Every mass
here, of a weight or of f against it, is read from lattice's dyadic
pyramid: a compensated float64 pairwise sum of the box's own cells; the
rectangle proof chain's slice profiles and averages from the pyramid of
the trailing axes, bit for bit the masses slice_profile sums.  The good-cube
Carleson sum takes cube goodness from the skeleton-goodness kernel in
`grids`.  One batched evaluator, _embeddings (_pyramids or _stack_terms,
_terms and _embedding), makes every embedding sum: the cube check and the
rectangle lhs are its batch of one, and the rectangle proof chain is one
call over the slices of every level, its points' sums taken from the
pyramid that gives the slices.  The weight's and f's masses are one
pyramid of the two on a batch axis (_paired_cells), and the rectangle
lhs reads the product pyramid a whole stack level at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bump import _bump_map, _vol_factor
from .errors import ContractViolationError, DomainError, ShapeError
from .grids import GoodnessParams, _good_cubes
from .lattice import (
    GridFunction,
    Lattice,
    Rect,
    Weight,
    _cellwise,
    _check_int,
    _check_theta,
    _first_factor,
    _level_masses,
    _level_stacks,
    _lp_norms,
    _refine_array,
    _total,
    doubling_report,
    make_lattice,
)

__all__ = [
    "CarlesonReport",
    "EmbedRectReport",
    "EmbedReport",
    "StoppingFamily",
    "automatic_carleson",
    "embed_check_cubes",
    "embed_check_rects",
    "good_carleson",
    "stopping_cubes",
]


def _dyadic_level(lat: Lattice, P: Rect) -> int:
    """Level of a standard dyadic cube given in cell coordinates."""
    if P.dim != lat.dim:
        raise ShapeError(f"cube has {P.dim} axes, lattice has {lat.dim}")
    n = lat.cells_per_axis
    side = P.hi[0] - P.lo[0]
    if side <= 0 or side & (side - 1) or side > n:
        raise DomainError(f"side {side} cells is not a dyadic cube side")
    for a, b in zip(P.lo, P.hi):
        if b - a != side:
            raise DomainError(f"box {P.lo}..{P.hi} is not a cube")
        if a < 0 or b > n or a % side:
            raise DomainError(f"box {P.lo}..{P.hi} is not grid aligned")
    return lat.depth - (side.bit_length() - 1)


def _subtree(lat: Lattice, P: Rect, level_p: int, cells: np.ndarray):
    """(level, masses) per level of the dyadic subcubes of P, from the
    pyramid of cellwise values cells over P's own cells."""
    block = cells[tuple(slice(a, b) for a, b in zip(P.lo, P.hi))]
    for (gap,), masses in _level_masses(block, Lattice(lat.dim, lat.depth - level_p)):
        yield level_p + gap, masses


def _series_gap(decay: float, exponents: str) -> float:
    """1 - 2^-decay, a geometric series constant's denominator."""
    gap = 1.0 - 2.0 ** (-decay)
    if gap == 0.0:
        raise DomainError(f"1 - 2^-{decay!r} rounds to 0: {exponents} lie too close to 1")
    return gap


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / rhs


# ---------------------------------------------------------------------------
# stopping cubes


@dataclass(frozen=True)
class StoppingFamily:
    """Maximal dyadic cubes whose bump-normalized average exceeds 2^k.

    refined_ok records, cube by cube, whether the stronger lower bound
    (restricting the integral to the set where f > 2^(k-1)) also holds;
    it should, and a False here flags a genuine numerical tie.
    """

    k: int
    cubes: tuple[Rect, ...]
    averages: tuple[float, ...]
    refined_ok: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.cubes)


def stopping_cubes(
    f: GridFunction,
    w: Weight,
    theta: float,
    k: int,
) -> StoppingFamily:
    """Top-down maximal selection: average > 2^k, no selected ancestor.

    The average of a cube Q is the f-mass of Q divided by its theta bump,
    so cubes of zero bump never qualify.  Selection walks levels from the
    root; a selected cube blocks its entire subtree, which is exactly the
    maximality in the family's contract and makes the cubes disjoint.
    """
    _check_theta(theta)
    # 2^k and 2^(k-1) stay finite, nonzero float64
    if _check_int("k", k, -1073) > 1023:
        raise DomainError(f"k must be at most 1023, got {k!r}")
    lat = w.lattice
    if f.lattice != lat:
        raise ShapeError("function and weight live on different lattices")
    threshold = 2.0 ** k
    cut = 2.0 ** (k - 1)
    restricted = np.where(f.values > cut, f.values, 0.0)
    pyramids = zip(
        _level_masses(_cellwise(lat, w.density, theta), lat),
        _level_masses(f.values * w.density * lat.cell_volume, lat),
        _level_masses(restricted * w.density * lat.cell_volume, lat),
    )
    blocked = np.zeros((1,) * lat.dim, dtype=bool)
    cubes: list[Rect] = []
    averages: list[float] = []
    refined: list[bool] = []
    for ((level,), mw), (_, mf), (_, mass_cut) in pyramids:
        b = _bump_map(mw, 2.0 ** (-level * lat.dim), theta)
        avg = np.where(b > 0.0, mf / np.where(b > 0.0, b, 1.0), 0.0)
        chosen = (avg > threshold) & ~blocked
        side = lat.cells_per_axis >> level
        for i in np.flatnonzero(chosen):
            lo = tuple(int(a) * side for a in np.unravel_index(i, chosen.shape))
            cubes.append(Rect(lo, tuple(a + side for a in lo)))
            averages.append(float(avg.flat[i]))
            refined.append(float(mass_cut.flat[i]) > cut * float(b.flat[i]))
        if level < lat.depth:
            blocked = _refine_array(blocked | chosen, 1)
    return StoppingFamily(
        k=int(k), cubes=tuple(cubes), averages=tuple(averages), refined_ok=tuple(refined)
    )


# ---------------------------------------------------------------------------
# Carleson sums


@dataclass(frozen=True)
class CarlesonReport:
    lhs_sum: float
    rhs_bound: float
    explicit_constant: float
    ratio: float
    witness: Rect

    @property
    def passes(self) -> bool:
        return self.ratio <= 1.0 + 1e-9


def automatic_carleson(
    P: Rect,
    w: Weight,
    theta: float,
    rho: float,
) -> CarlesonReport:
    """Sum of bump^rho over all dyadic subcubes of P, against the bound
    that holds for every weight once theta > 1 and rho > 1.

    Each level contributes at most 2^(-level_gap * d * (rho-1)/theta')
    of the top term because the bump is superadditive in the volume
    factor; summing the geometric series gives the explicit constant
    1 / (1 - 2^(-d(rho-1)/theta')).  The top cube P itself is included.
    """
    if not 1.0 < rho < math.inf:
        raise DomainError(f"rho must be finite and exceed 1, got {rho}")
    if not 1.0 < theta < math.inf:
        raise DomainError(f"the automatic bound needs a finite theta > 1, got {theta}")
    lat = w.lattice
    level_p = _dyadic_level(lat, P)
    decay = lat.dim * (rho - 1.0) * (1.0 - 1.0 / theta)
    constant = 1.0 / _series_gap(decay, f"rho={rho!r}, theta={theta!r}")
    terms = []
    for level, masses in _subtree(lat, P, level_p, _cellwise(lat, w.density, theta)):
        b = _bump_map(masses, 2.0 ** (-level * lat.dim), theta)
        terms.append(np.power(b, rho).ravel())
        if level == level_p:
            top = float(b.flat[0])
    rhs = constant * float(np.power(top, rho))
    lhs = float(_total(np.concatenate(terms)))
    return CarlesonReport(lhs, rhs, constant, _ratio(lhs, rhs), P)


def good_carleson(
    P: Rect,
    w: Weight,
    rho: float,
    goodness: GoodnessParams,
    eta: float | None = None,
) -> CarlesonReport:
    """Plain-mass Carleson sum over the good subcubes of P.

    Goodness is taken relative to P: a subcube at gap k clears the
    skeleton of every ancestor at gaps r..k.  The explicit constant has a
    trivial term (r+1) * 2^(d*r) covering the shallow gaps and a geometric
    series driven by the measured reverse-doubling exponent of the weight;
    eta defaults to the cube exponent of the product_reverse scan.
    """
    if not 1.0 < rho < math.inf:
        raise DomainError(f"rho must be finite and exceed 1, got {rho}")
    if eta is not None and not math.isfinite(eta):
        raise DomainError(f"eta must be finite, got {eta}")
    lat = w.lattice
    level_p = _dyadic_level(lat, P)

    scan = doubling_report(w, "product_reverse")
    eta_val = float(eta) if eta is not None else float(scan.rev_eps_cube or 0.0)
    if not scan.passes_reverse or eta_val <= 0.0:
        witness = None
        if scan.rev_eps is not None:
            for axis, eps in enumerate(scan.rev_eps):
                if eps <= 0.0:
                    witness = scan.witnesses.get(f"reverse_axis_{axis}")
                    break
        if witness is None:
            witness = scan.witnesses.get("reverse_cube")
        err = DomainError(
            "weight fails the reverse-doubling precondition: axis exponents "
            f"{scan.rev_eps}, cube exponent {scan.rev_eps_cube}, witness {witness}"
        )
        err.witness = witness
        raise err

    decay = eta_val * (1.0 - goodness.eps) * (rho - 1.0)
    trivial = (goodness.r + 1) * 2.0 ** (lat.dim * goodness.r)
    gap = _series_gap(decay, f"eta={eta_val!r}, eps={goodness.eps!r}, rho={rho!r}")
    constant = trivial + float(scan.rev_C) / gap

    terms = []
    for level, masses in _subtree(lat, P, level_p, _cellwise(lat, w.density)):
        if level == level_p:
            top = float(masses.flat[0])
        good = _good_cubes(masses.shape[0], level - level_p, goodness, lat.dim)
        terms.append(np.power(masses[good], rho))
    rhs = constant * float(np.power(top, rho))
    lhs = float(_total(np.concatenate(terms)))
    return CarlesonReport(lhs, rhs, constant, _ratio(lhs, rhs), P)


# ---------------------------------------------------------------------------
# embedding checks


@dataclass(frozen=True)
class EmbedReport:
    lhs: float
    rhs_norm: float
    ratio: float


def _paired_cells(f, u, lat: Lattice, theta: float) -> np.ndarray:
    """The cellwise u**theta * cell_volume and f * u * cell_volume of an
    embedding, written into one array on a new leading axis, so that one
    pyramid sums both; its batch rows are summed each on its own."""
    both = np.empty((2,) + f.shape)
    _cellwise(lat, u, theta, both[0])
    np.multiply(f, u, out=both[1])
    both[1] *= lat.cell_volume
    return both


def _pyramids(f, u, lat: Lattice, theta: float):
    """(levels, bump, f-mass) per level of cellwise f under density u
    (trailing axes the lattice lat, leading ones a batch): the theta bump
    and the f-mass of every dyadic cube, from one dyadic pyramid of the
    _paired_cells."""
    for lv, (mu, mf) in _level_masses(_paired_cells(f, u, lat, theta), lat):
        yield lv, _bump_map(mu, 2.0 ** -(lv[0] * lat.dim), theta), mf


def _terms(b: np.ndarray, mf: np.ndarray, r: float, s: float, dim: int) -> np.ndarray:
    """One level tuple's embedding terms, a row per batch index.  Each
    term is one float64 power, (mf * bump^(1/s - 1))^r, as mf^r * bump^(r/s
    - r) underflows."""
    pos = b > 0.0
    terms = np.where(pos, np.power(mf * np.power(np.where(pos, b, 1.0), 1 / s - 1), r), 0.0)
    return terms.reshape(terms.shape[:-dim] + (-1,))


def _embedding(terms: dict, f, u, lat: Lattice, r: float, s: float):
    """lhs, L^s norm and lhs^r of an embedding from its terms per level
    tuple: the compensated total (_total) of each batch row's terms, the
    level tuples in product order, so a row keeps the bits of a batch of
    one."""
    total = _total(np.concatenate([terms[lv] for lv in sorted(terms)], axis=-1))
    return np.power(total, 1.0 / r), _lp_norms(lat, f, u, s), total


@functools.lru_cache(maxsize=256)
def _stack_factors(levels: range, lj: int, m: int, n: int, theta: float) -> np.ndarray:
    """The bump's volume factors of a stack's level lj (_level_stacks):
    per li, the _vol_factor of a level-(li, lj) rectangle over li's rows,
    a read-only column (rows,) + (1,)^n, or one 0-d factor for a stack of
    one level."""
    factors = [_vol_factor(2.0 ** -(li * m + lj * n), theta) for li in levels]
    col = np.array(factors[0]) if len(levels) == 1 else np.repeat(factors, [1 << (li * m) for li in levels])
    col = col.reshape(col.shape + (1,) * n)
    col.flags.writeable = False
    return col


def _stack_terms(f, u, lat: Lattice, theta: float, r: float, s: float, m: int) -> dict:
    """The _terms of every level tuple of the product pyramid of the
    _paired_cells, read a stack level at a time: each (stack, lj) is one bump
    map, its factors a column over the rows, and one _terms call, whose
    row segments are its level tuples' terms."""
    n = lat.dim - m
    terms = {}
    for levels, stream in _level_stacks(_paired_cells(f, u, lat, theta), lat, m):
        for lj, (mu, mf) in stream:
            row = _terms(_bump_map(mu, _stack_factors(levels, lj, m, n, theta), theta), mf, r, s, n + 1)
            at = 0
            for li in levels:
                size = 1 << (li * m + lj * n)
                terms[li, lj] = row[..., at : at + size]
                at += size
    return terms


def _embeddings(f, u, lat: Lattice, theta: float, r: float, s: float, m: int | None = None):
    """_embedding of cellwise f under density u over the level tuples of
    _pyramids (m None) or of the product pyramid's stacks (_stack_terms),
    the batched evaluator of every embedding sum.  Every step is
    elementwise, so a level tuple's terms have the same bits either way."""
    if f.shape != u.shape:
        raise ShapeError("function and weight live on different lattices")
    if m is None:
        terms = {lv: _terms(b, mf, r, s, lat.dim) for lv, b, mf in _pyramids(f, u, lat, theta)}
    else:
        terms = _stack_terms(f, u, lat, theta, r, s, m)
    return _embedding(terms, f, u, lat, r, s)


def embed_check_cubes(
    f: GridFunction,
    w: Weight,
    theta: float,
    r: float,
    s: float,
) -> EmbedReport:
    """lhs = {sum over cubes of bump^(r/s) * average^r}^(1/r) vs the L^s norm.

    Cubes of zero bump carry no f-mass and add nothing.  Each term is one
    float64 power, (mass * bump^(1/s - 1))^r, of the f-mass from the
    pyramid, and the terms are one compensated total.  This is the
    batched evaluator on a batch of one.
    """
    if not 1.0 < theta < math.inf:
        raise DomainError(f"the cube embedding needs a finite theta > 1, got {theta}")
    if not 1.0 < s < r < math.inf:
        raise DomainError(f"exponents must satisfy 1 < s < r < inf, got s={s}, r={r}")
    lhs, rhs = (float(v) for v in _embeddings(f.values, w.density, w.lattice, theta, r, s)[:2])
    return EmbedReport(lhs, rhs, _ratio(lhs, rhs))


@dataclass(frozen=True)
class EmbedRectReport:
    lhs: float
    rhs_norm: float
    ratio: float
    intermediate: float
    minkowski_mid: float
    max_slice_ratio: float
    max_point_ratio: float


def embed_check_rects(
    f: GridFunction,
    w: Weight,
    theta: float,
    r: float,
    s: float,
    m: int = 1,
) -> EmbedRectReport:
    """Rectangle version of the embedding check, with its proof chain.

    The lhs runs over all products of a dyadic cube in the first m axes
    with one in the rest, by direct enumeration.  The report also carries
    the two middle quantities of the slicing proof:

      intermediate   sum over J of ||g_J||^r, where g_J is the J-average
                     of f against the slice-profile measure of J,
      minkowski_mid  the x-integral that Minkowski's inequality puts
                     between intermediate^(s/r) and the L^s norm.

    The chain lhs^r <= max_slice_ratio^r * intermediate, then
    intermediate^(s/r) <= minkowski_mid <= max_point_ratio^s * rhs_norm^s,
    is verified numerically and a violation raises, since each link is an
    identity or a theorem once the per-slice ratios are measured.  The
    per-slice and per-point embeddings are batched level reductions.
    """
    if not 1.0 < theta < math.inf:
        raise DomainError(f"the rectangle embedding needs a finite theta > 1, got {theta}")
    if not 1.0 < s < r < math.inf:
        raise DomainError(f"exponents must satisfy 1 < s < r < inf, got s={s}, r={r}")
    lat = w.lattice
    m = _first_factor(lat, m)
    lhs, rhs, total = _embeddings(f.values, w.density, lat, theta, r, s, m)
    lhs, rhs = float(lhs), float(rhs)
    chain = _chain(total, rhs, _proof_chain(f, w, theta, r, s, m), r, s)
    return EmbedRectReport(lhs, rhs, _ratio(lhs, rhs), *chain)


def _slice(b: np.ndarray, mf: np.ndarray, n: int) -> tuple:
    """(g, profile) of every dyadic cube J of one level of the last n axes,
    from its _pyramids entry over those axes: the J-average g_J of f
    against J's slice profile, and the profile, slice_profile(J).density
    bit for bit; J's index axes lead."""
    dens, h = (np.moveaxis(a, range(a.ndim - n, a.ndim), range(n)) for a in (b, mf))
    return np.where(dens > 0.0, h / np.where(dens > 0.0, dens, 1.0), 0.0), dens


def _proof_chain(f: GridFunction, w: Weight, theta: float, r: float, s: float, m: int):
    """slice_lhs, slice_rhs: cube embeddings of g_J under the slice profile
    of each dyadic J (by level, then C order), every level's slices one
    batch of one call; point_lhs, point_rhs: of f(x, .) under w(x, .), x
    in C order, from the same pyramids of the last dim - m axes."""
    lat = w.lattice
    n_ax, depth = lat.dim - m, lat.depth
    m_lat, n_lat = make_lattice(m, depth), make_lattice(n_ax, depth)
    gs, profiles, terms = [], [], {}
    for lv, b, mf in _pyramids(f.values, w.density, n_lat, theta):
        terms[lv] = _terms(b, mf, r, s, n_ax)
        g, dens = _slice(b, mf, n_ax)
        gs.append(g.reshape((-1,) + m_lat.shape))
        profiles.append(dens.reshape((-1,) + m_lat.shape))
    slices = _embeddings(np.concatenate(gs), np.concatenate(profiles), m_lat, theta, r, s)[:2]
    points = _embedding(terms, f.values, w.density, n_lat, r, s)[:2]
    return *(v.ravel() for v in slices), *(v.ravel() for v in points)


def _chain(total, rhs: float, parts, r: float, s: float) -> tuple:
    """intermediate, minkowski_mid and the largest slice and point ratios
    of the _proof_chain parts, each link (exact mathematics, slack only for
    rounding) checked.  Each sum is one compensated total, whatever the
    batches: the slices' two are the rows of one _total call, and so are
    the points' two."""
    lhs_r_check, intermediate = _total(np.power(np.stack(parts[:2]), r)).tolist()
    minkowski_mid, norm_check = _total(np.power(np.stack(parts[2:]), s) / parts[2].size).tolist()
    max_slice_ratio, max_point_ratio = (
        float(np.max(a[b > 0.0] / b[b > 0.0], initial=0.0)) for a, b in (parts[:2], parts[2:])
    )
    total, rhs_s = float(total), float(np.power(rhs, s))
    if abs(total - lhs_r_check) > 1e-6 * max(total, lhs_r_check, 1e-300):
        raise ContractViolationError(f"slicing identity broke: direct lhs^r {total} vs sliced {lhs_r_check}")
    if lhs_r_check > max_slice_ratio**r * intermediate * (1 + 1e-9):
        raise ContractViolationError("per-slice bound broke: lhs^r exceeds max slice ratio^r * intermediate")
    if intermediate ** (s / r) > minkowski_mid * (1 + 1e-6):
        raise ContractViolationError(
            f"Minkowski step broke: intermediate^(s/r) {intermediate ** (s / r)} exceeds {minkowski_mid}"
        )
    if minkowski_mid > max_point_ratio**s * norm_check * (1 + 1e-9):
        raise ContractViolationError("per-point bound broke: minkowski_mid exceeds max point ratio^s * norm^s")
    if abs(norm_check - rhs_s) > 1e-6 * max(norm_check, rhs_s, 1e-300):
        raise ContractViolationError(f"norm bookkeeping broke: sliced norm^s {norm_check} vs direct {rhs_s}")
    return intermediate, minkowski_mid, max_slice_ratio, max_point_ratio
