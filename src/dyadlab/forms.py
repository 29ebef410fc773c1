"""Kernels, bilinear forms over rectangle families, and norm estimation.

The level-indexed kernel (KernelHandle, defined in bump and re-exported
here) meets two weights in everything below: the surrogate kernel sum over
shifted grid families, the positive bilinear form, its good/bad split, the
discrete product fractional integral, and an alternating-maximization
lower bound for the form's norm.  Grid geometry comes from `grids`: the
surrogate kernel telescopes at the deepest common grid level, and the
good/bad split classifies cubes with the skeleton-goodness kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Sequence

import numpy as np

from .bump import KernelHandle, characteristic
from .errors import (
    AlignmentError,
    ContractViolationError,
    DomainError,
    ScopeError,
    ShapeError,
)
from .grids import DyadicGrid, DyadicRect, GoodnessParams, _good_cubes, deepest_common_level
from .lattice import (
    GridFunction,
    Lattice,
    Weight,
    _weight_masses,
    box_list,
    box_masses,
    gather_boxes,
    lp_norm,
    substream,
    tile_edges,
    weighted_mass_prefix,
)

_LD = np.longdouble

__all__ = [
    "FormValue",
    "KernelHandle",
    "NormEstimate",
    "RectFamily",
    "apply_frac_integral",
    "bilinear_form",
    "dyadic_family",
    "family_of",
    "goodbad_split",
    "kernel_eval",
    "norm_estimate",
    "surrogate_kernel",
]


# ---------------------------------------------------------------------------
# kernel


def kernel_eval(kernel: KernelHandle, rect: DyadicRect) -> float:
    return kernel.level_value(rect.i_cube.level, rect.j_cube.level)


# ---------------------------------------------------------------------------
# surrogate kernel over shifted grid families


def _as_point(p, dims: int, label: str) -> tuple[float, ...]:
    pt = tuple(float(c) for c in p) if hasattr(p, "__len__") else (float(p),)
    if len(pt) != dims:
        raise ShapeError(f"{label} must have {dims} coordinates, got {len(pt)}")
    for c in pt:
        if not 0.0 <= c < 1.0:
            raise DomainError(f"{label} coordinate {c} leaves the unit box")
    return pt


def surrogate_kernel(
    kernel: KernelHandle,
    x,
    y,
    u,
    v,
    i_grids: Sequence[DyadicGrid],
    j_grids: Sequence[DyadicGrid],
) -> float:
    """Sum of K(R) over every family rectangle containing both (x,y) and (u,v).

    Nesting makes the cubes of one grid that contain both x and u exactly
    the levels up to the deepest common one, so the sum telescopes into a
    per-grid geometric series.  Pairs sharing a finest cell are rejected:
    their true sum continues below the truncation and the lattice cannot
    represent it.
    """
    xm = _as_point(x, kernel.m, "x")
    um = _as_point(u, kernel.m, "u")
    yn = _as_point(y, kernel.n, "y")
    vn = _as_point(v, kernel.n, "v")
    for grid in i_grids:
        if grid.dim != kernel.m:
            raise ShapeError(f"first-factor grid has dim {grid.dim}, kernel has m={kernel.m}")
    for grid in j_grids:
        if grid.dim != kernel.n:
            raise ShapeError(f"second-factor grid has dim {grid.dim}, kernel has n={kernel.n}")

    i_tops = [deepest_common_level(g, xm, um) for g in i_grids]
    j_tops = [deepest_common_level(g, yn, vn) for g in j_grids]
    for grid, top in zip(i_grids, i_tops):
        if top == grid.hi:
            raise ScopeError("x and u share a finest cell; the truncated sum saturates")
    for grid, top in zip(j_grids, j_tops):
        if top == grid.hi:
            raise ScopeError("y and v share a finest cell; the truncated sum saturates")

    if kernel.kind == "product_frac":
        sx = _LD(0.0)
        for grid, top in zip(i_grids, i_tops):
            if top is None:
                continue
            for li in range(grid.lo, top + 1):
                sx += _LD(2.0) ** (li * (kernel.m - kernel.alpha))
        sy = _LD(0.0)
        for grid, top in zip(j_grids, j_tops):
            if top is None:
                continue
            for lj in range(grid.lo, top + 1):
                sy += _LD(2.0) ** (lj * (kernel.n - kernel.beta))
        return float(sx * sy)
    total = _LD(0.0)
    for gi, ti in zip(i_grids, i_tops):
        if ti is None:
            continue
        for gj, tj in zip(j_grids, j_tops):
            if tj is None:
                continue
            for li in range(gi.lo, ti + 1):
                for lj in range(gj.lo, tj + 1):
                    total += _LD(kernel.level_value(li, lj))
    return float(total)


# ---------------------------------------------------------------------------
# rectangle families


@dataclass(frozen=True)
class RectFamily:
    """Materialized rectangle family: integer cell boxes plus level pairs."""

    m: int
    n: int
    boxes: np.ndarray
    levels: np.ndarray
    tag: str
    rects: tuple[DyadicRect, ...] | None = None

    @property
    def size(self) -> int:
        return int(self.boxes.shape[0])


def dyadic_family(lat: Lattice, m: int) -> RectFamily:
    """Every product of standard dyadic cubes, all level pairs 0..depth."""
    if not 1 <= m < lat.dim:
        raise ShapeError(f"first factor must span 1..{lat.dim - 1} axes, got {m}")
    n = lat.dim - m
    cells = lat.cells_per_axis
    chunks = []
    lvls = []
    for li in range(lat.depth + 1):
        for lj in range(lat.depth + 1):
            sides = (cells >> li,) * m + (cells >> lj,) * n
            block = box_list(*tile_edges((0,) * lat.dim, (cells,) * lat.dim, sides))
            chunks.append(block)
            lvls.append(np.full((block.shape[0], 2), (li, lj), dtype=np.int64))
    return RectFamily(m, n, np.concatenate(chunks), np.concatenate(lvls), "dyadic")


def _cube_box(lat: Lattice, cube) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    if cube.grid.kind != "std":
        raise DomainError("families gather on the lattice; cubes must come from standard grids")
    if cube.level < 0 or cube.level > lat.depth:
        raise AlignmentError(f"cube level {cube.level} leaves the lattice depth {lat.depth}")
    side = lat.cells_per_axis >> cube.level
    lo = tuple(int(i) * side for i in cube.index)
    hi = tuple(a + side for a in lo)
    for a, b in zip(lo, hi):
        if a < 0 or b > lat.cells_per_axis:
            raise AlignmentError(f"cube at index {cube.index} leaves the unit box")
    return lo, hi, cube.level


def family_of(lat: Lattice, rects: Sequence[DyadicRect]) -> RectFamily:
    """Family from explicit rectangles (standard-grid cubes only)."""
    rects = tuple(rects)
    if not rects:
        raise DomainError("family needs at least one rectangle")
    m = rects[0].i_cube.grid.dim
    n = rects[0].j_cube.grid.dim
    if m + n != lat.dim:
        raise ShapeError(f"rectangles span {m}+{n} axes, lattice has {lat.dim}")
    boxes = np.empty((len(rects), lat.dim, 2), dtype=np.int64)
    levels = np.empty((len(rects), 2), dtype=np.int64)
    for row, rect in enumerate(rects):
        ilo, ihi, li = _cube_box(lat, rect.i_cube)
        jlo, jhi, lj = _cube_box(lat, rect.j_cube)
        boxes[row, :m, 0] = ilo
        boxes[row, :m, 1] = ihi
        boxes[row, m:, 0] = jlo
        boxes[row, m:, 1] = jhi
        levels[row] = (li, lj)
    return RectFamily(m, n, boxes, levels, "custom", rects)


# ---------------------------------------------------------------------------
# bilinear form and the good/bad split


@dataclass(frozen=True)
class FormValue:
    total: float
    parts: tuple[float, float, float] | None
    size: int


def _family_masses(family: RectFamily, f: GridFunction, w: Weight) -> np.ndarray:
    return gather_boxes(weighted_mass_prefix(f, w), family.boxes)


def bilinear_form(
    kernel: KernelHandle,
    sigma: Weight,
    omega: Weight,
    f: GridFunction,
    g: GridFunction,
    family: RectFamily | None = None,
) -> FormValue:
    """Exact sum of K(R) * (integral of f dsigma over R) * (same for g, omega)."""
    if sigma.lattice != omega.lattice:
        raise ShapeError("sigma and omega live on different lattices")
    if family is None:
        family = dyadic_family(sigma.lattice, kernel.m)
    kv = kernel.level_values(family.levels)
    fs = _family_masses(family, f, sigma)
    gs = _family_masses(family, g, omega)
    total = float((kv * fs * gs).sum(dtype=_LD))
    return FormValue(total, None, family.size)


def goodbad_split(
    kernel: KernelHandle,
    sigma: Weight,
    omega: Weight,
    f: GridFunction,
    g: GridFunction,
    goodness: GoodnessParams,
    grids: tuple[DyadicGrid, DyadicGrid] | None = None,
) -> FormValue:
    """Bilinear form split into good x good, anything x bad, bad x anything.

    A factor cube is good when it clears the skeleton of all its tree
    ancestors at gaps r and beyond; cubes too shallow to have such
    ancestors count as good.  The three parts over-count the bad x bad
    rectangles once, so total = parts.sum - badbad, and total <= parts.sum.
    """
    if sigma.lattice != omega.lattice:
        raise ShapeError("sigma and omega live on different lattices")
    lat = sigma.lattice
    if grids is not None:
        for grid, dims in zip(grids, (kernel.m, kernel.n)):
            if grid.kind != "std" or grid.dim != dims:
                raise DomainError("the split runs on the standard grid pair")
    m, n = kernel.m, kernel.n
    if m + n != lat.dim:
        raise ShapeError(f"kernel spans {m}+{n} axes, lattice has {lat.dim}")
    cells = lat.cells_per_axis
    f_tab = weighted_mass_prefix(f, sigma)
    g_tab = weighted_mass_prefix(g, omega)

    sums = np.zeros(4, dtype=_LD)  # total, goodgood, anybad, badany
    badbad = _LD(0.0)
    for li in range(lat.depth + 1):
        i_good = _good_cubes(1 << li, li, goodness, m).ravel()
        for lj in range(lat.depth + 1):
            j_good = _good_cubes(1 << lj, lj, goodness, n).ravel()
            sides = (cells >> li,) * m + (cells >> lj,) * n
            lo, hi = tile_edges((0,) * lat.dim, (cells,) * lat.dim, sides)
            kv = kernel.level_value(li, lj)
            terms = (_LD(kv) * box_masses(f_tab, lo, hi) * box_masses(g_tab, lo, hi)).ravel()
            ig = np.repeat(i_good, j_good.size)
            jg = np.tile(j_good, i_good.size)
            sums[0] += terms.sum(dtype=_LD)
            sums[1] += terms[ig & jg].sum(dtype=_LD)
            sums[2] += terms[~jg].sum(dtype=_LD)
            sums[3] += terms[~ig].sum(dtype=_LD)
            badbad += terms[~ig & ~jg].sum(dtype=_LD)

    total, gg, ab, ba = (float(v) for v in sums)
    recombined = float(sums[1] + sums[2] + sums[3] - badbad)
    scale = max(abs(total), abs(recombined), 1e-300)
    if abs(total - recombined) > 1e-9 * scale or total > (gg + ab + ba) * (1 + 1e-9):
        raise ContractViolationError(
            f"good/bad split identity broke: total {total}, parts ({gg}, {ab}, {ba}), "
            f"badbad {float(badbad)}"
        )
    return FormValue(total, (gg, ab, ba), _family_size(lat, m, n))


def _family_size(lat: Lattice, m: int, n: int) -> int:
    per_i = sum(1 << (li * m) for li in range(lat.depth + 1))
    per_j = sum(1 << (lj * n) for lj in range(lat.depth + 1))
    return per_i * per_j


# ---------------------------------------------------------------------------
# discrete product fractional integral


def _diag_average(alpha: float, m: int) -> float:
    """Average of |z|^(alpha/m - 1) over the unit cube around the origin."""
    if m == 1:
        return 2.0 ** (1.0 - alpha) / alpha
    res = {2: 256, 3: 40}.get(m, 16)
    axes = (np.arange(res) + 0.5) / res - 0.5
    mesh = np.meshgrid(*([axes] * m), indexing="ij")
    dist = np.sqrt(sum(c**2 for c in mesh))
    return float(np.power(dist, alpha / m - 1.0).mean())


def _group_matrix(cells: int, depth: int, dims: int, exponent_num: float) -> np.ndarray:
    """Pairwise |center - center|^(num/dims - 1) * cellvolume for one factor."""
    h = 2.0 ** -depth
    centers = (np.arange(cells) + 0.5) * h
    mesh = np.meshgrid(*([centers] * dims), indexing="ij")
    pts = np.stack([c.ravel() for c in mesh], axis=1)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    power = exponent_num / dims - 1.0
    out = np.zeros_like(dist)
    off = dist > 0.0
    out[off] = dist[off] ** power
    np.fill_diagonal(out, _diag_average(exponent_num, dims) * h**power)
    return out * h**dims


def apply_frac_integral(
    f: GridFunction, alpha: float, beta: float, m: int, n: int
) -> GridFunction:
    """Discrete two-factor fractional integral of f, cell centers to cell centers.

    The kernel factor between distinct cells is the center-to-center
    distance power; the same-cell factor is the exact per-cell average of
    the power, which keeps the operator finite (closed form when the
    factor is one-dimensional, midpoint quadrature otherwise).
    """
    lat = f.lattice
    if m + n != lat.dim:
        raise ShapeError(f"factors span {m}+{n} axes, lattice has {lat.dim}")
    if not 0.0 < alpha < m:
        raise DomainError(f"alpha must lie in (0, {m}), got {alpha}")
    if not 0.0 < beta < n:
        raise DomainError(f"beta must lie in (0, {n}), got {beta}")
    cells = lat.cells_per_axis
    a_mat = _group_matrix(cells, lat.depth, m, alpha)
    b_mat = _group_matrix(cells, lat.depth, n, beta)
    flat = f.values.reshape(cells**m, cells**n)
    out = a_mat @ flat @ b_mat.T
    return GridFunction(lat, out.reshape(lat.shape))


# ---------------------------------------------------------------------------
# norm lower bound by alternating maximization


@dataclass(frozen=True)
class NormEstimate:
    """Certified lower bound on the bilinear form's norm.

    trace rows are (start, halfstep, objective); the bound is the larger
    of the best feasible-pair objective and the indicator floor, which is
    the no-bump characteristic of the family and is achieved by a
    normalized indicator pair.
    """

    lower_bound: float
    trace: tuple[tuple[int, int, float], ...]
    indicator_floor: float
    best_f: GridFunction
    best_g: GridFunction


def _scatter_boxes(shape: tuple[int, ...], boxes: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Sum of coef_R * indicator(R) as a cell array, via corner differences."""
    d = len(shape)
    diff = np.zeros(tuple(s + 1 for s in shape), dtype=_LD)
    for corner in _iproduct((0, 1), repeat=d):
        sign = -1.0 if sum(corner) % 2 else 1.0
        idx = tuple(boxes[:, k, corner[k]] for k in range(d))
        np.add.at(diff, idx, sign * coef)
    for axis in range(d):
        diff = np.cumsum(diff, axis=axis)
    return diff[tuple(slice(0, s) for s in shape)]


def _half_step(
    vals: np.ndarray,
    src_w: Weight,
    dst_w: Weight,
    family: RectFamily,
    kv: np.ndarray,
    dual_exp: float,
) -> tuple[float, np.ndarray]:
    """Apply the form against one argument, normalize the optimal partner.

    Returns the objective (the L^dual_exp norm of the image, which equals
    the form at the optimal feasible partner) and that partner's values.
    """
    lat = src_w.lattice
    masses = gather_boxes(weighted_mass_prefix(GridFunction(lat, vals), src_w), family.boxes)
    image = _scatter_boxes(lat.shape, family.boxes, kv * masses)
    image64 = np.asarray(image, dtype=np.float64)
    norm = lp_norm(GridFunction(lat, image64), dst_w, dual_exp)
    if norm == 0.0:
        return 0.0, np.zeros(lat.shape)
    partner = np.power(image64 / norm, dual_exp - 1.0)
    return norm, partner


def norm_estimate(
    kernel: KernelHandle,
    sigma: Weight,
    omega: Weight,
    exps,
    family: RectFamily | None = None,
    iterations: int = 8,
    seed: int = 0,
) -> NormEstimate:
    """Alternating maximization of the form over normalized pairs.

    For fixed f the optimal g is the q-power normalization of the image
    of f, and symmetrically, so each half-step is exact and the objective
    never decreases.  Three random starts run for `iterations` rounds;
    the witness of the no-bump characteristic seeds a fourth.  The floor
    guarantees the bound dominates the family's no-bump characteristic.
    """
    if sigma.lattice != omega.lattice:
        raise ShapeError("sigma and omega live on different lattices")
    lat = sigma.lattice
    if family is None:
        family = dyadic_family(lat, kernel.m)
    if kernel.kind == "product_frac" and (
        kernel.alpha != exps.alpha
        or kernel.beta != exps.beta
        or kernel.m != exps.m
        or kernel.n != exps.n
    ):
        raise DomainError("kernel and exponent pack disagree on (alpha, beta, m, n)")
    kv = kernel.level_values(family.levels)
    p, q = exps.p, exps.q
    p_prime, q_prime = exps.p_prime, exps.q_prime

    floor_value, floor_witness = _indicator_floor(kernel, sigma, omega, exps, family)
    starts: list[np.ndarray] = []
    for t in range(3):
        rng = substream(seed, 606, t)
        starts.append(np.exp(0.5 * rng.standard_normal(lat.shape)))
    indicator_pair = _indicator_pair(lat, sigma, omega, floor_witness, p, q_prime)
    if indicator_pair is not None:
        starts.append(indicator_pair[0])

    trace: list[tuple[int, int, float]] = []
    best = -1.0
    best_pair: tuple[np.ndarray, np.ndarray] | None = None
    for t, f0 in enumerate(starts):
        norm0 = lp_norm(GridFunction(lat, f0), sigma, p)
        if norm0 == 0.0:
            continue
        f_vals = f0 / norm0
        g_vals = np.zeros(lat.shape)
        for it in range(iterations):
            obj, g_vals = _half_step(f_vals, sigma, omega, family, kv, q)
            trace.append((t, 2 * it, obj))
            if obj > best:
                best, best_pair = obj, (f_vals.copy(), g_vals.copy())
            if obj == 0.0:
                break
            obj, f_vals = _half_step(g_vals, omega, sigma, family, kv, p_prime)
            trace.append((t, 2 * it + 1, obj))
            if obj > best:
                best, best_pair = obj, (f_vals.copy(), g_vals.copy())

    if indicator_pair is not None and floor_value >= best:
        best_pair = (indicator_pair[0], indicator_pair[1])
    lower = max(best, floor_value, 0.0)
    if best_pair is None:
        zero = np.zeros(lat.shape)
        best_pair = (zero, zero)
    return NormEstimate(
        lower,
        tuple(trace),
        floor_value,
        GridFunction(lat, best_pair[0]),
        GridFunction(lat, best_pair[1]),
    )


def _indicator_floor(kernel, sigma, omega, exps, family: RectFamily):
    """Max over the family of K(R)|R|_sigma^(1/p')|R|_omega^(1/q).

    For the full dyadic family this is exactly the no-bump characteristic,
    computed through the same code path so comparisons are reproducible."""
    if family.tag == "dyadic" and kernel.kind == "product_frac":
        res = characteristic("no_bump", None, sigma, omega, exps, family="dyadic")
        return res.value, res.witness
    lo, hi = family.boxes[:, :, 0].T, family.boxes[:, :, 1].T
    msig = _weight_masses(sigma, lo, hi).astype(np.float64)
    momg = _weight_masses(omega, lo, hi).astype(np.float64)
    vals = (
        kernel.level_values(family.levels)
        * np.power(msig, 1.0 / exps.p_prime)
        * np.power(momg, 1.0 / exps.q)
    )
    i = int(np.argmax(vals))
    witness = family.rects[i] if family.rects is not None else None
    return float(vals[i]), witness


def _indicator_pair(lat, sigma, omega, witness, p, q_prime):
    """Normalized indicator pair of the floor witness, if it has mass."""
    if witness is None:
        return None
    try:
        box = family_of(lat, [witness]).boxes[0]
    except (DomainError, AlignmentError, ShapeError, AttributeError):
        return None
    sel = tuple(slice(int(a), int(b)) for a, b in box)
    ind = np.zeros(lat.shape)
    ind[sel] = 1.0
    f_norm = lp_norm(GridFunction(lat, ind), sigma, p)
    g_norm = lp_norm(GridFunction(lat, ind), omega, q_prime)
    if f_norm == 0.0 or g_norm == 0.0:
        return None
    return ind / f_norm, ind / g_norm
