"""Kernels, bilinear forms over rectangle families, and norm estimation.

The level-indexed kernel (KernelHandle, defined in bump and re-exported
here) meets two weights in everything below: the surrogate kernel sum over
shifted grid families, the positive bilinear form, its good/bad split, the
discrete product fractional integral, and an alternating-maximization
lower bound for the form's norm.  Grid geometry comes from `grids`: the
surrogate kernel telescopes at the deepest common grid level, and the
good/bad split classifies cubes with the skeleton-goodness kernel.

The form, its split and every norm half-step read one dyadic pyramid of
the cellwise measure f * density * cell_volume: pairwise block sums from
fine to coarse give the mass of every rectangle of a level pair (li, lj)
at once, and a half-step's image, the sum over rectangles R of
K(R) * mass(R) * 1_R, prolongs those masses back from coarse to fine by
repetition.  The kernel enters as one coefficient per level pair, or as
an array of them over the pair's rectangles for an explicit family, so
no rectangle list is built on the default paths.  Every pyramid sum adds
nonnegative terms, so it runs in float64.  The norm estimate's indicator
floor is the kernel's no-bump characteristic, read through bump's one
evaluator, and every K comes from KernelHandle.level_value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .bump import KernelHandle, _products, characteristic
from .errors import (
    AlignmentError,
    ContractViolationError,
    DomainError,
    ResourceError,
    ScopeError,
    ShapeError,
)
from .grids import (
    DyadicGrid,
    DyadicRect,
    GoodnessParams,
    _good_cubes,
    deepest_common_levels,
)
from .lattice import (
    ARRAY_BUDGET_BYTES,
    NORM_BUDGET_ITERATIONS,
    GridFunction,
    Lattice,
    Weight,
    _cellwise,
    _chunks,
    _level_masses,
    _level_stacks,
    _lp_norms,
    _segments,
    _total,
    lp_norm,
    substream,
)

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
    "surrogate_kernels",
]


# ---------------------------------------------------------------------------
# kernel


def kernel_eval(kernel: KernelHandle, rect: DyadicRect) -> float:
    return kernel.level_value(rect.i_cube.level, rect.j_cube.level)


# ---------------------------------------------------------------------------
# surrogate kernel over shifted grid families


@functools.lru_cache(maxsize=64)
def _series_terms(ranges: tuple[tuple[int, int], ...], exp: float):
    """Every grid's levels lo..hi in grid then level order, the grid each
    belongs to, and the float64 terms 2^(level * exp)."""
    levels = np.concatenate([np.arange(lo, hi + 1) for lo, hi in ranges])
    grid = np.repeat(np.arange(len(ranges)), [hi - lo + 1 for lo, hi in ranges])
    terms = np.array([2.0 ** (lv * exp) for lv in levels.tolist()])
    for a in (levels, grid, terms):
        a.flags.writeable = False
    return levels, grid, terms


def _surrogate_series(kernel: KernelHandle, i_grids, i_tops, j_grids, j_tops) -> np.ndarray:
    """Surrogate sums of N point pairs from their deepest common levels.

    i_tops (N, len(i_grids)) and j_tops (N, len(j_grids)) hold each pair's
    level per grid, one below the grid's lo where the pair shares no cube.
    Each grid contributes its levels lo..top, in grid then level order, a
    term left out being 0, and each pair's terms are one compensated
    total (_total); the terms are the kernel's scalar formula, evaluated
    once per level (pair).
    """
    if kernel.kind == "product_frac":
        sums = []
        factors = ((i_grids, i_tops, kernel.m - kernel.alpha), (j_grids, j_tops, kernel.n - kernel.beta))
        for grids, tops, exp in factors:
            levels, grid, terms = _series_terms(tuple((g.lo, g.hi) for g in grids), exp)
            sums.append(_total(np.where(levels <= tops[:, grid], terms, 0.0)))
        return sums[0] * sums[1]
    # a table may lack levels no pair reaches, so only those below the
    # deepest top are looked up
    cols = []
    for gi, ti in zip(i_grids, i_tops.T):
        for gj, tj in zip(j_grids, j_tops.T):
            li = np.arange(gi.lo, min(gi.hi, int(ti.max(initial=gi.lo - 1))) + 1)
            lj = np.arange(gj.lo, min(gj.hi, int(tj.max(initial=gj.lo - 1))) + 1)
            terms = np.array([[kernel.level_value(a, b) for b in lj.tolist()] for a in li.tolist()])
            keep = (li <= ti[:, None])[:, :, None] & (lj <= tj[:, None])[:, None, :]
            cols.append(np.where(keep, terms.reshape(li.size, lj.size), 0.0).reshape(len(ti), -1))
    return _total(np.concatenate([np.zeros((len(i_tops), 0)), *cols], axis=1))


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
    represent it.  This is surrogate_kernels on a batch of one.
    """
    value = float(surrogate_kernels(kernel, *([np.ravel(p)] for p in (x, y, u, v)), i_grids, j_grids)[0])
    if math.isnan(value):
        raise ScopeError("the points share a finest cell; the truncated sum saturates")
    return value


def surrogate_kernels(
    kernel: KernelHandle,
    x,
    y,
    u,
    v,
    i_grids: Sequence[DyadicGrid],
    j_grids: Sequence[DyadicGrid],
) -> np.ndarray:
    """surrogate_kernel for N point pairs at once, as a float64 array.

    x and u hold (N, m) coordinates, y and v (N, n).  A row whose points
    share a finest cell, where surrogate_kernel raises ScopeError, is NaN;
    every other row has surrogate_kernel's bits.  The deepest common levels
    come from grids.deepest_common_levels.
    """
    pts = []
    for label, p, dims in (("x", x, kernel.m), ("y", y, kernel.n), ("u", u, kernel.m), ("v", v, kernel.n)):
        arr = np.asarray(p, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != dims:
            raise ShapeError(f"{label} must have shape (N, {dims}), got {arr.shape}")
        if not ((arr >= 0.0) & (arr < 1.0)).all():
            raise DomainError(f"{label} has a coordinate outside the unit box")
        pts.append(arr)
    xm, yn, um, vn = pts
    if not len(xm) == len(yn) == len(um) == len(vn):
        raise ShapeError("x, y, u and v must hold the same number of points")
    for grid, dims in [(g, kernel.m) for g in i_grids] + [(g, kernel.n) for g in j_grids]:
        if grid.dim != dims:
            raise ShapeError(f"a grid has dim {grid.dim} where the kernel's factor has {dims}")
    i_tops = np.stack([deepest_common_levels(g, xm, um) for g in i_grids], axis=1)
    j_tops = np.stack([deepest_common_levels(g, yn, vn) for g in j_grids], axis=1)
    saturated = (i_tops == [g.hi for g in i_grids]).any(axis=1)
    saturated |= (j_tops == [g.hi for g in j_grids]).any(axis=1)
    out = _surrogate_series(kernel, i_grids, i_tops, j_grids, j_tops)
    out[saturated] = np.nan
    return out


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


def _tiles(cells: int, sides) -> np.ndarray:
    """The cubes of per-axis sides tiling [0, cells)^d as a (N, d, 2) box
    list of lower and upper edges, C order."""
    sides = np.array(sides, dtype=np.int64)
    lo = np.indices(cells // sides, dtype=np.int64).reshape(sides.size, -1).T * sides
    return np.stack([lo, lo + sides], axis=2)


def dyadic_family(lat: Lattice, m: int) -> RectFamily:
    """Every product of standard dyadic cubes, all level pairs 0..depth.

    A box array past ARRAY_BUDGET_BYTES raises ResourceError before any
    box is built."""
    if not 1 <= m < lat.dim:
        raise ShapeError(f"first factor must span 1..{lat.dim - 1} axes, got {m}")
    n = lat.dim - m
    need = _family_size(lat, m, n) * lat.dim * 2 * 8
    if need > ARRAY_BUDGET_BYTES:
        raise ResourceError(
            f"the dyadic family's box array takes {need} bytes, limit {ARRAY_BUDGET_BYTES} bytes"
        )
    cells = lat.cells_per_axis
    chunks = []
    lvls = []
    for li in range(lat.depth + 1):
        for lj in range(lat.depth + 1):
            block = _tiles(cells, (cells >> li,) * m + (cells >> lj,) * n)
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
# level-pair pyramids


def _family_cells(kernel: KernelHandle, lat: Lattice, family: RectFamily):
    """The level-pair key li * (depth + 1) + lj and the cube index per
    lattice axis of each family rectangle, once the family is checked to
    span the kernel's axes with the dyadic cubes of its stated levels."""
    m, n = family.m, family.n
    if (m, n) != (kernel.m, kernel.n) or family.boxes.shape[1:] != (lat.dim, 2):
        raise ShapeError(f"family spans {m}+{n} axes, kernel {kernel.m}+{kernel.n}")
    cells = lat.cells_per_axis
    lo, hi = family.boxes[:, :, 0], family.boxes[:, :, 1]
    lv = family.levels
    if np.any((lv < 0) | (lv > lat.depth)):
        raise AlignmentError(f"family levels leave the lattice depth {lat.depth}")
    sides = cells >> lv[:, [0] * m + [1] * n]
    if np.any((lo % sides != 0) | (hi - lo != sides) | (lo < 0) | (hi > cells)):
        raise AlignmentError("family boxes must be the dyadic cubes of their stated levels")
    return lv[:, 0] * (lat.depth + 1) + lv[:, 1], lo // sides


def _level_coefs(kernel: KernelHandle, lat: Lattice, family: RectFamily | None) -> list:
    """coef[li][lj] per level pair: the scalar K of the pair for the full
    dyadic family (family None), else K times the count of each of the
    pair's rectangles in the family, as an array over the pair's grid of
    rectangles, so duplicates add; 0.0 for a pair the family lacks."""
    levels = range(lat.depth + 1)
    if family is None:
        return [[kernel.level_value(li, lj) for lj in levels] for li in levels]
    pair, index = _family_cells(kernel, lat, family)
    coef: list = [[0.0 for _ in levels] for _ in levels]
    for key in np.flatnonzero(np.bincount(pair)):
        li, lj = divmod(int(key), lat.depth + 1)
        counts = np.zeros((1 << li,) * family.m + (1 << lj,) * family.n)
        np.add.at(counts, tuple(index[pair == key].T), 1.0)
        kv = kernel.level_value(li, lj)
        coef[li][lj] = kv if np.all(counts == 1.0) else kv * counts
    return coef


def _coef_columns(coef: list, lat: Lattice, m: int) -> list:
    """Per stack of _level_stacks and per lj, the coefficient of every
    mass of the stack's level lj, coef[li][lj] on li's rows, shaped
    (rows,) + (2^lj,)^(d-m)."""
    out = []
    for levels in _chunks(lat.depth):
        cols = []
        for lj in range(lat.depth + 1):
            tail = (1 << lj,) * (lat.dim - m)
            blocks = [np.broadcast_to(coef[li][lj], (1 << li,) * m + tail) for li in levels]
            cols.append(np.concatenate([b.reshape((-1,) + tail) for b in blocks]))
        out.append(cols)
    return out


def _add_refined(out: np.ndarray, part: np.ndarray, axes: range) -> None:
    """out += part repeated twice along each of the axes, in place, without
    building the repeat: each of the axes of out is split into its pairs
    (a view, as splitting an axis always is), and part, given a unit axis
    at each pair axis, is broadcast over both of each pair, one add per
    cell."""
    split, spread = [], []
    for ax, size in enumerate(out.shape):
        split += [size // 2, 2] if ax in axes else [size]
        spread += [size // 2, 1] if ax in axes else [size]
    pairs = out.reshape(split)
    pairs += part.reshape(spread)


def _dyadic_image(h: np.ndarray, lat: Lattice, m: int, columns: list) -> np.ndarray:
    """Sum over level pairs of coef[li][lj] * P R h, as a cell array, the
    coefficients given as their _coef_columns.

    R restricts the cellwise h to its level-pair rectangle masses and P
    prolongs them back over each rectangle's cells, so the image at x is
    the sum of coef * mass over the rectangles holding x.  Prolongation
    telescopes from coarse to fine, one level at a time: on the J axes
    over each stack of _level_stacks, all its li at once, and then on the
    I axes, one li's rows after the other, so the whole image costs
    O(cells) for any level kernel.  Every term is a nonnegative sum, so it
    runs in float64.

    The trailing lat.dim axes of h are the lattice; leading axes are a
    batch, so norm_estimate runs all its starts through one call.  Every
    operation is elementwise (the sums in place, into the fresh term), and
    a stack's rows are summed as each level's alone, so each batch row
    has the bits of its own unbatched image, level pair by level pair.
    """
    lead = h.ndim - lat.dim
    i_axes, j_axes = range(lead, lead + m), range(lead + 1, h.ndim - m + 1)
    parts = {}
    for (levels, stream), cols in zip(_level_stacks(h, lat, m, compensated=False), columns):
        part = None
        for lj, masses in reversed(list(stream)):
            term = cols[lj] * masses
            if part is not None:
                _add_refined(term, part, j_axes)
            part = term
        parts.update(zip(levels, _segments(part, levels, m, lead)))
    image = parts.pop(0)
    for li in range(1, lat.depth + 1):
        _add_refined(parts[li], image, i_axes)
        image = parts.pop(li)
    return image


# ---------------------------------------------------------------------------
# bilinear form and the good/bad split


@dataclass(frozen=True)
class FormValue:
    total: float
    parts: tuple[float, float, float] | None
    size: int


def _check_form(kernel: KernelHandle, sigma: Weight, omega: Weight, *funcs: GridFunction):
    lat = sigma.lattice
    if omega.lattice != lat:
        raise ShapeError("sigma and omega live on different lattices")
    if any(f.lattice != lat for f in funcs):
        raise ShapeError("function and weight live on different lattices")
    if kernel.m + kernel.n != lat.dim:
        raise ShapeError(f"kernel spans {kernel.m}+{kernel.n} axes, lattice has {lat.dim}")


def _level_terms(
    kernel: KernelHandle,
    sigma: Weight,
    omega: Weight,
    f: GridFunction,
    g: GridFunction,
    family: RectFamily | None,
):
    """(li, lj, terms) per level pair, in _level_masses' order: coef * (f
    sigma mass) * (g omega mass) of every rectangle of the pair, from the
    same pyramids."""
    lat = sigma.lattice
    coef = _level_coefs(kernel, lat, family)
    f_masses = _level_masses(f.values * sigma.density * lat.cell_volume, lat, kernel.m, False)
    g_masses = _level_masses(g.values * omega.density * lat.cell_volume, lat, kernel.m, False)
    for ((li, lj), fs), (_, gs) in zip(f_masses, g_masses):
        yield li, lj, coef[li][lj] * fs * gs


def bilinear_form(
    kernel: KernelHandle,
    sigma: Weight,
    omega: Weight,
    f: GridFunction,
    g: GridFunction,
    family: RectFamily | None = None,
) -> FormValue:
    """Exact sum of K(R) * (integral of f dsigma over R) * (same for g, omega)."""
    _check_form(kernel, sigma, omega, f, g)
    terms = _level_terms(kernel, sigma, omega, f, g, family)
    total = math.fsum(float(t.sum()) for _, _, t in terms)
    size = _family_size(sigma.lattice, kernel.m, kernel.n) if family is None else family.size
    return FormValue(total, None, size)


def goodbad_split(
    kernel: KernelHandle,
    sigma: Weight,
    omega: Weight,
    f: GridFunction,
    g: GridFunction,
    goodness: GoodnessParams,
) -> FormValue:
    """Bilinear form split into good x good, anything x bad, bad x anything.

    A factor cube is good when it clears the skeleton of all its tree
    ancestors at gaps r and beyond; cubes too shallow to have such
    ancestors count as good.  The three parts over-count the bad x bad
    rectangles once, so total = parts.sum - badbad, and total <= parts.sum.
    """
    _check_form(kernel, sigma, omega, f, g)
    lat = sigma.lattice
    m, n = kernel.m, kernel.n
    levels = range(lat.depth + 1)
    i_good = [_good_cubes(1 << li, li, goodness, m).reshape(-1, 1) for li in levels]
    j_good = [_good_cubes(1 << lj, lj, goodness, n).reshape(1, -1) for lj in levels]

    sums: list[list[float]] = [[] for _ in range(5)]  # total, goodgood, anybad, badany, badbad
    for li, lj, terms in _level_terms(kernel, sigma, omega, f, g, None):
        ig, jg = i_good[li], j_good[lj]
        terms = terms.reshape(ig.size, jg.size)
        sums[0].append(float(terms.sum()))
        for acc, mask in zip(sums[1:], (ig & jg, ~jg, ~ig, ~ig & ~jg)):
            acc.append(float(terms[np.broadcast_to(mask, terms.shape)].sum()))

    total, gg, ab, ba, badbad = (math.fsum(acc) for acc in sums)
    recombined = math.fsum(sums[1] + sums[2] + sums[3]) - badbad
    scale = max(abs(total), abs(recombined), 1e-300)
    if abs(total - recombined) > 1e-9 * scale or total > (gg + ab + ba) * (1 + 1e-9):
        raise ContractViolationError(
            f"good/bad split identity broke: total {total}, parts ({gg}, {ab}, {ba}), "
            f"badbad {badbad}"
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

    Each factor is a dense cells^k x cells^k matrix built from a pairwise
    array of center differences, cells^(2k) * k float64 values; when the
    larger factor's would pass ARRAY_BUDGET_BYTES, ResourceError is raised
    before anything is allocated.
    """
    lat = f.lattice
    if m + n != lat.dim:
        raise ShapeError(f"factors span {m}+{n} axes, lattice has {lat.dim}")
    if not 0.0 < alpha < m:
        raise DomainError(f"alpha must lie in (0, {m}), got {alpha}")
    if not 0.0 < beta < n:
        raise DomainError(f"beta must lie in (0, {n}), got {beta}")
    cells = lat.cells_per_axis
    largest = max(cells ** (2 * k) * k for k in (m, n)) * 8
    if largest > ARRAY_BUDGET_BYTES:
        raise ResourceError(
            f"apply_frac_integral needs a {largest}-byte array of center differences, "
            f"limit {ARRAY_BUDGET_BYTES} bytes"
        )
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
    the kernel's no-bump characteristic over the family and is achieved
    by a normalized indicator pair.
    """

    lower_bound: float
    trace: tuple[tuple[int, int, float], ...]
    indicator_floor: float
    best_f: GridFunction
    best_g: GridFunction


def _half_steps(
    vals: np.ndarray,
    src_w: Weight,
    dst_w: Weight,
    columns: list,
    m: int,
    dual_exp: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the form, its coefficients as _coef_columns, against a batch
    of arguments (stacked on axis 0) and normalize each optimal partner.

    Returns the objectives (each the L^dual_exp norm of its image, which
    equals the form at the optimal feasible partner) and the partners'
    values; a row whose image has norm 0 gets objective 0 and a zero
    partner.
    """
    lat = src_w.lattice
    image = _dyadic_image(vals * src_w.density * lat.cell_volume, lat, m, columns)
    norms = _lp_norms(lat, image, dst_w.density, dual_exp)
    scale = norms.reshape(norms.shape + (1,) * lat.dim)
    live = norms != 0.0
    if live.all():
        return norms, np.power(image / scale, dual_exp - 1.0)
    partner = np.zeros_like(image)
    partner[live] = np.power(image[live] / scale[live], dual_exp - 1.0)
    return norms, partner


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
    the indicator floor's rectangle, where it has mass, seeds a fourth.
    The floor is the kernel's no-bump characteristic over the family
    (bump.characteristic on the full dyadic family, the same evaluator on
    an explicit one), so the bound dominates it; when it wins, the
    returned pair is the normalized indicator pair of its rectangle,
    which attains it.

    The starts run as one batch: each half-step is one pyramid pass over
    every start still running.  A start with zero L^p(sigma) norm never
    joins, and a start leaves once an f-to-g half-step returns 0.  The
    trace stays start-major, (start, halfstep, objective) rows ordered by
    start and then half-step, and the returned pair is the first strict
    maximum in that order, so every number is the one a start-by-start
    loop gives.  More than NORM_BUDGET_ITERATIONS iterations raise
    ResourceError before any half-step.
    """
    if isinstance(iterations, bool) or not isinstance(iterations, Integral) or iterations < 0:
        raise DomainError(f"iterations must be an integer >= 0, got {iterations!r}")
    if iterations > NORM_BUDGET_ITERATIONS:
        raise ResourceError(
            f"the norm estimate's {iterations} iterations pass the limit of "
            f"{NORM_BUDGET_ITERATIONS} iterations"
        )
    _check_form(kernel, sigma, omega)
    lat = sigma.lattice
    if (kernel.m, kernel.n) != (exps.m, exps.n) or kernel.kind == "product_frac" and (
        kernel.alpha != exps.alpha or kernel.beta != exps.beta
    ):
        raise DomainError("kernel and exponent pack disagree on (alpha, beta, m, n)")
    columns = _coef_columns(_level_coefs(kernel, lat, family), lat, kernel.m)
    p, q = exps.p, exps.q
    p_prime, q_prime = exps.p_prime, exps.q_prime

    floor_value, floor_witness = _indicator_floor(kernel, sigma, omega, exps, family)
    indicator_pair = _indicator_pair(lat, sigma, omega, floor_witness, p, q_prime)
    f_vals = np.stack(
        [np.exp(0.5 * substream(seed, 606, t).standard_normal(lat.shape)) for t in range(3)]
        + ([indicator_pair[0]] if indicator_pair is not None else [])
    )
    norms = _lp_norms(lat, f_vals, sigma.density, p)
    ids = np.flatnonzero(norms != 0.0)
    f_vals = f_vals[ids] / norms[ids].reshape((-1,) + (1,) * lat.dim)
    rows: list[list[tuple[int, int, float]]] = [[] for _ in norms]
    # per start, its first strict maximum and the pair that reached it
    best = [-1.0] * len(norms)
    pairs: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(norms)

    def record(step, objs, ids, f_vals, g_vals) -> None:
        for k, (t, obj) in enumerate(zip(ids.tolist(), objs.tolist())):
            rows[t].append((t, step, obj))
            if obj > best[t]:
                best[t], pairs[t] = obj, (f_vals[k].copy(), g_vals[k].copy())

    for it in range(iterations):
        if not ids.size:
            break
        objs, g_vals = _half_steps(f_vals, sigma, omega, columns, kernel.m, q)
        record(2 * it, objs, ids, f_vals, g_vals)
        running = objs != 0.0
        if not running.all():
            ids, f_vals, g_vals = ids[running], f_vals[running], g_vals[running]
            if not ids.size:
                break
        objs, f_vals = _half_steps(g_vals, omega, sigma, columns, kernel.m, p_prime)
        record(2 * it + 1, objs, ids, f_vals, g_vals)

    top, best_pair = -1.0, None
    for value, pair in zip(best, pairs):
        if value > top:
            top, best_pair = value, pair
    if indicator_pair is not None and floor_value >= top:
        best_pair = indicator_pair
    lower = max(top, floor_value, 0.0)
    if best_pair is None:
        zero = np.zeros(lat.shape)
        best_pair = (zero, zero)
    return NormEstimate(
        lower,
        tuple(row for start in rows for row in start),
        floor_value,
        GridFunction(lat, best_pair[0]),
        GridFunction(lat, best_pair[1]),
    )


def _indicator_floor(kernel, sigma, omega, exps, family: RectFamily | None):
    """Max over the family of K(R)|R|_sigma^(1/p')|R|_omega^(1/q) and its
    first maximizing rectangle.

    On the full dyadic family, given as None or as a dyadic family, this
    is the kernel's no-bump characteristic over the standard grid pair,
    witness included.  An explicit family reads the same pyramid masses
    in the family's order and evaluates them by the characteristic's
    batch evaluator (bump._products) on the level pairs it holds, so the
    first maximizer is in the family's order and a kernel table needs
    only those pairs; the rectangle is the family's, None for a family
    not given as rectangles.
    """
    if family is None or family.tag == "dyadic":
        res = characteristic("no_bump", kernel, sigma, omega, exps, family="dyadic")
        return res.value, res.witness
    lat = sigma.lattice
    pair, index = _family_cells(kernel, lat, family)
    vals = np.zeros(family.size)
    pyramids = [_level_masses(_cellwise(lat, w.density), lat, kernel.m) for w in (sigma, omega)]
    for ((li, lj), ms), (_, mw) in zip(*pyramids):
        rows = np.flatnonzero(pair == li * (lat.depth + 1) + lj)
        if rows.size:
            at = tuple(index[rows].T)
            levels = [(li, kernel.m), (lj, kernel.n)]
            vals[rows] = _products("no_bump", kernel, exps, levels, (ms[at], mw[at]))
    i = int(np.argmax(vals))
    return float(vals[i]), None if family.rects is None else family.rects[i]


def _indicator_pair(lat, sigma, omega, witness, p, q_prime):
    """Normalized indicator pair of the floor witness, if it has mass."""
    if witness is None:
        return None
    box = family_of(lat, [witness]).boxes[0]
    sel = tuple(slice(int(a), int(b)) for a, b in box)
    ind = np.zeros(lat.shape)
    ind[sel] = 1.0
    f_norm = lp_norm(GridFunction(lat, ind), sigma, p)
    g_norm = lp_norm(GridFunction(lat, ind), omega, q_prime)
    if f_norm == 0.0 or g_norm == 0.0:
        return None
    return ind / f_norm, ind / g_norm
