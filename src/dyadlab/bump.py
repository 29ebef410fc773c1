"""Bump functionals on cubes and rectangles, and the four characteristics.

The theta-bump of a box Q under a weight with density u is

    vol(Q)^(1 - 1/theta) * (integral of u^theta over Q)^(1/theta)

with theta = 1 reducing to the plain mass.  Every bump here is one map,
_bump_map, of float64 masses, and every characteristic value comes from
one batch evaluator, _products: kernel factor times the two bump powers
for the outer product of a batch of factor cubes.  On the standard
dyadic grid (a one-third family's offset-0 grid tuple included) the
masses come from lattice's dyadic pyramid: the scan feeds _products one
level tuple at a time, and characteristic_at rebuilds its witness's mass
from the witness's own cells by the same tree.  On the other one-third
grid tuples, and for arbitrary boxes, they come from the prefix engine,
lattice.box_masses: the scan feeds whole grid levels, coarsest first, the
cubes of several one-third offsets side by side, and keeps the first
maximizer of each grid tuple's block; characteristic_at feeds it the
witness alone.  The bump and kernel powers run in float64 (the
package's precision policy, see lattice).  A box's mass does not depend
on the batch it is read in, so a reported witness re-evaluates to the
reported value bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Mapping

import numpy as np

from .errors import DomainError, ShapeError
from .grids import Cube, DyadicGrid, DyadicRect, onethird_grids, standard_grid
from .lattice import (
    Axis,
    BoxGrid,
    Rect,
    Weight,
    _block_sums,
    _cellwise,
    _level_masses,
    _tree_mass,
    _weight_masses,
    join_axes,
    make_lattice,
    rect_volume,
    substream,
)

_LD = np.longdouble


@dataclass(frozen=True)
class Exponents:
    """Integrability and smoothing exponents shared by the characteristics.

    r and s are only needed by the embedding machinery; leave them None
    elsewhere.
    """

    p: float
    q: float
    alpha: float
    beta: float
    m: int = 1
    n: int = 1
    theta: float = 1.0
    r: float | None = None
    s: float | None = None

    def __post_init__(self):
        if not 1.0 < self.p < self.q < math.inf:
            raise DomainError(f"need 1 < p < q < inf, got p={self.p}, q={self.q}")
        if self.theta < 1.0:
            raise DomainError(f"theta must be >= 1, got {self.theta}")
        if self.m < 1 or self.n < 1:
            raise DomainError("dimensions must be positive integers")
        if not 0.0 < self.alpha < self.m:
            raise DomainError(f"need 0 < alpha < m, got alpha={self.alpha}, m={self.m}")
        if not 0.0 < self.beta < self.n:
            raise DomainError(f"need 0 < beta < n, got beta={self.beta}, n={self.n}")
        if (self.r is None) != (self.s is None):
            raise DomainError("r and s come as a pair")
        if self.r is not None and not 1.0 < self.s < self.r < math.inf:
            raise DomainError(f"need 1 < s < r < inf, got s={self.s}, r={self.r}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_prime(self) -> float:
        return self.q / (self.q - 1.0)

    @property
    def inv_theta_prime(self) -> float:
        # 1/theta' = 1 - 1/theta; exactly 0 at theta = 1
        return 1.0 - 1.0 / self.theta


@dataclass(frozen=True)
class KernelHandle:
    """Nonnegative kernel on dyadic rectangles, a function of levels only.

    product_frac carries K(I x J) = |I|^(alpha/m - 1) * |J|^(beta/n - 1);
    a custom handle carries an explicit level-pair table.
    """

    kind: str
    alpha: float
    beta: float
    m: int
    n: int
    table: Mapping[tuple[int, int], float] | None = None

    @classmethod
    def product_frac(cls, alpha: float, beta: float, m: int, n: int) -> "KernelHandle":
        if not 0.0 < alpha < m:
            raise DomainError(f"alpha must lie in (0, m)=(0, {m}), got {alpha}")
        if not 0.0 < beta < n:
            raise DomainError(f"beta must lie in (0, n)=(0, {n}), got {beta}")
        return cls("product_frac", float(alpha), float(beta), int(m), int(n))

    @classmethod
    def from_exponents(cls, exps: Exponents) -> "KernelHandle":
        return cls.product_frac(exps.alpha, exps.beta, exps.m, exps.n)

    @classmethod
    def from_table(cls, table: Mapping[tuple[int, int], float], m: int, n: int) -> "KernelHandle":
        for key, val in table.items():
            if not (math.isfinite(val) and val >= 0.0):
                raise DomainError(f"kernel table value at {key} must be finite and >= 0")
        return cls("table", math.nan, math.nan, int(m), int(n), dict(table))

    @property
    def i_exp(self) -> float:
        """Exponent of |I| in the product_frac kernel."""
        return self.alpha / self.m - 1.0

    @property
    def j_exp(self) -> float:
        """Exponent of |J| in the product_frac kernel."""
        return self.beta / self.n - 1.0

    def level_value(self, li: int, lj: int) -> float:
        if self.kind == "product_frac":
            return 2.0 ** (li * (self.m - self.alpha)) * 2.0 ** (lj * (self.n - self.beta))
        try:
            return self.table[(li, lj)]
        except KeyError:
            raise DomainError(f"kernel table has no entry for levels ({li}, {lj})") from None


# The power kernel of the characteristics is the product_frac handle.
PowerKernel = KernelHandle


def _bump_map(masses: np.ndarray, vol: float, theta: float) -> np.ndarray:
    """vol^(1 - 1/theta) * mass^(1/theta) of float64 masses, every bump in
    the package; the volume factor is one float64 power per call, so
    theta = 1 returns the masses themselves."""
    inv_theta = 1.0 / theta
    return float(vol) ** (1.0 - inv_theta) * np.power(masses, inv_theta)


def _prefix_masses(w: Weight, theta: float, lo, hi=None) -> np.ndarray:
    """Float64 masses of w**theta over boxes spanned by lo/hi (or the
    BoxGrid lo, hi None) from the prefix engine, clamped at 0."""
    return np.maximum(_weight_masses(w, lo, hi, theta), _LD(0.0)).astype(np.float64)


def _bumps(w: Weight, theta: float, lo, hi, vol: float) -> np.ndarray:
    """Theta-bumps of w's boxes spanned by lo/hi (or of the BoxGrid lo,
    hi None), all of volume vol."""
    return _bump_map(_prefix_masses(w, theta, lo, hi), vol, theta)


def bump_cube(rect: Rect, w: Weight, theta: float) -> float:
    """Theta-bump of a cell-aligned box; theta = 1 gives the plain mass."""
    if theta < 1.0:
        raise DomainError(f"theta must be >= 1, got {theta}")
    if rect.dim != w.lattice.dim:
        raise ShapeError(f"box has {rect.dim} axes, lattice has {w.lattice.dim}")
    return float(_bumps(w, theta, rect.lo, rect.hi, rect_volume(w.lattice, rect)))


def bump_rect(i_rect: Rect, j_rect: Rect, w: Weight, theta: float) -> float:
    """Theta-bump of the product box I x J under a weight on m+n axes."""
    if i_rect.dim + j_rect.dim != w.lattice.dim:
        raise ShapeError(
            f"factors span {i_rect.dim}+{j_rect.dim} axes, lattice has {w.lattice.dim}"
        )
    joint = Rect(i_rect.lo + j_rect.lo, i_rect.hi + j_rect.hi)
    return bump_cube(joint, w, theta)


def slice_profile(j_rect: Rect, w: Weight, theta: float) -> Weight:
    """Collapse the last axes: density x -> bump of j_rect under the slice
    at x.  Exact for piecewise-constant densities, which makes the iterated
    identity hold to rounding error.
    """
    if theta < 1.0:
        raise DomainError(f"theta must be >= 1, got {theta}")
    d = w.lattice.dim
    n = j_rect.dim
    if not 1 <= n < d:
        raise ShapeError(f"slice needs 1..{d - 1} trailing axes, got {n}")
    m = d - n
    cells = w.lattice.cells_per_axis
    for k in range(n):
        if not 0 <= j_rect.lo[k] < j_rect.hi[k] <= cells:
            raise DomainError(f"slice box {j_rect} leaves the lattice")
    sel = (slice(None),) * m + tuple(slice(j_rect.lo[k], j_rect.hi[k]) for k in range(n))
    cell_vol = w.lattice.cell_side**n
    cellwise = np.power(w.density[sel], float(theta)).astype(_LD)
    mass = cellwise.sum(axis=tuple(range(m, d))) * _LD(cell_vol)
    prof = _bump_map(mass.astype(np.float64), cell_vol * j_rect.cells, theta)
    return Weight(make_lattice(m, w.lattice.depth), prof.reshape(-1))


def _level_profiles(w: Weight, theta: float, n: int, level: int) -> np.ndarray:
    """slice_profile(J).density, bit for bit, of every dyadic J of the last
    n axes at one level, from one block sum; J's index axes lead."""
    side = w.lattice.cells_per_axis >> level
    cell_vol = w.lattice.cell_side**n
    mass = _block_sums(np.power(w.density, float(theta)).astype(_LD), n, side) * _LD(cell_vol)
    return _bump_map(mass.astype(np.float64), cell_vol * side**n, theta)


def _uniforms(rng: np.random.Generator, chunk: int = 1024):
    """rng's uniform doubles in [0, 1), drawn chunk at a time: the same
    values, in the same order, as one rng.uniform() call each."""
    while True:
        yield from rng.random(chunk).tolist()


def random_partition(lattice, seed: int, split_prob: float = 0.7) -> list[Rect]:
    """Random dyadic partition of the unit box into cell-aligned cubes.

    Walks the dyadic tree from the root; each cube splits into its 2^dim
    children with the given probability until the finest level.
    """
    draws = _uniforms(substream(seed, 404))
    out: list[Rect] = []
    stack = [(0, (0,) * lattice.dim)]
    while stack:
        level, idx = stack.pop()
        if level < lattice.depth and next(draws) < split_prob:
            for corner in _iproduct((0, 1), repeat=lattice.dim):
                stack.append((level + 1, tuple(2 * idx[k] + corner[k] for k in range(lattice.dim))))
        else:
            scale = lattice.cells_per_axis >> level
            out.append(Rect(tuple(i * scale for i in idx), tuple((i + 1) * scale for i in idx)))
    return out


# ---------------------------------------------------------------------------
# characteristics


@dataclass(frozen=True)
class CharacteristicResult:
    kind: str
    value: float
    witness: DyadicRect | Cube
    exps: Exponents

    def csv_row(self) -> str:
        e = self.exps
        if isinstance(self.witness, Cube):
            levels = str(self.witness.level)
            indices = " ".join(str(i) for i in self.witness.index)
        else:
            levels = f"{self.witness.i_cube.level}|{self.witness.j_cube.level}"
            indices = (
                " ".join(str(i) for i in self.witness.i_cube.index)
                + "|"
                + " ".join(str(i) for i in self.witness.j_cube.index)
            )
        return (
            f"{self.kind},{e.p:.17g},{e.q:.17g},{e.theta:.17g},"
            f"{e.alpha:.17g},{e.beta:.17g},{self.value:.17g},{levels},{indices}"
        )


_BUMPED = {  # kind -> (sigma, omega) carry the theta bump
    "one_param": (True, True),
    "product_bump": (True, True),
    "half_bump_omega": (False, True),
    "no_bump": (False, False),
}


def _axis_cubes(grid: DyadicGrid, level: int, depth: int) -> tuple[range, Axis]:
    """Indices of a one-axis grid's level cubes meeting the open unit
    interval, and their edges in cells."""
    side = 1.0 / (1 << level)
    off = float(grid.offset(0, level))
    first = math.floor(-off / side)
    if (first + 1) * side + off <= 0:
        first += 1
    ks = np.arange(first, first + (1 << level) + 2, dtype=np.int64)
    index = range(first, first + int(np.count_nonzero(ks * side + off < 1)))
    return index, _cube_axis(off, level, index, depth)


def _cube_axis(off: float, level: int, index: range, depth: int) -> Axis:
    """Edges in cells of the level cubes index on an axis offset by off,
    clipped to the unit box: a strided progression when they are whole
    cells inside it, else a vertex list."""
    ncells = 1 << depth
    side_cells = float(2.0 ** (depth - level))
    shift = off * ncells
    a = np.arange(index.start, index.stop, dtype=np.int64) * side_cells + shift
    inside = a[0] >= 0 and a[-1] + side_cells <= ncells
    if shift.is_integer() and side_cells.is_integer() and inside:
        return Axis.progression(int(a[0]), len(index), int(side_cells), int(side_cells))
    return Axis.vertices(np.clip(a, 0.0, ncells), np.clip(a + side_cells, 0.0, ncells), ncells)


def _thetas(kind: str, exps: Exponents) -> tuple[float, float]:
    """The exponents of the sigma and omega bumps of a characteristic."""
    return tuple(exps.theta if bumped else 1.0 for bumped in _BUMPED[kind])


def _products(kind, kernel, exps, levels, masses) -> np.ndarray:
    """Kernel x bump products for a batch of factor-cube products, from
    the float64 sigma and omega masses of its boxes.

    levels holds each factor's (level, dim).  Volumes are the full cube
    volumes even where a cube pokes out of the unit box, where the density
    is zero.
    """
    vol = 1.0
    kval = 1.0
    for (level, dim), k_exp in zip(levels, (kernel.i_exp, kernel.j_exp)):
        side_vol = 2.0 ** (-level * dim)
        vol *= side_vol
        kval *= side_vol**k_exp
    bs, bw = (_bump_map(ms, vol, theta) for ms, theta in zip(masses, _thetas(kind, exps)))
    return kval * np.power(bs, 1.0 / exps.p_prime) * np.power(bw, 1.0 / exps.q)


def _check_scan(kind, kernel, sigma, omega, exps) -> tuple[KernelHandle, tuple[int, ...]]:
    """Validated kernel and the factor dimensions of a characteristic."""
    if kind not in _BUMPED:
        raise DomainError(f"unknown characteristic kind {kind!r}")
    if kernel is None:
        kernel = KernelHandle.from_exponents(exps)
    if kernel.kind != "product_frac":
        raise DomainError(f"characteristics need a product_frac kernel, got {kernel.kind!r}")
    if sigma.lattice != omega.lattice:
        raise ShapeError("sigma and omega must share a lattice")
    dim = sigma.lattice.dim
    if kind == "one_param":
        if dim != exps.m:
            raise ShapeError(f"one_param wants an m={exps.m} lattice, got dim {dim}")
        return kernel, (exps.m,)
    if exps.m + exps.n != dim:
        raise ShapeError(
            f"rectangle kinds want an (m+n)={exps.m + exps.n} lattice, got dim {dim}"
        )
    return kernel, (exps.m, exps.n)


def characteristic(
    kind: str,
    kernel: KernelHandle | None,
    sigma: Weight,
    omega: Weight,
    exps: Exponents,
    family: str | None = None,
) -> CharacteristicResult:
    """Supremum of the kernel-bump product over a finite rectangle family.

    family "dyadic" scans the standard grid pair; "onethird" scans all
    3^m * 3^n shifted pairs (the no-bump default, standing in for the
    supremum over arbitrary rectangles).  one_param scans cubes only.

    The result is the first maximum in scan order: grid tuples outermost,
    then level tuples, each in product order, then cubes in C order.  A
    grid tuple picks one of the family's offsets on every lattice axis.
    The tuple of offset 0 on every axis is the standard grid pair, read
    one level tuple of the two dyadic pyramids at a time.  The other
    one-third tuples read the prefix engine, one _products call covering
    several of them: the cubes of the three offsets side by side on an
    axis, while the call's box count stays at or below the scan's largest
    single-grid batch.  Each grid tuple's block of the result is searched
    on its own, so the grouping moves no value and no witness.
    """
    if family is None:
        family = "onethird" if kind == "no_bump" else "dyadic"
    if family not in ("dyadic", "onethird"):
        raise DomainError(f"unknown family {family!r}")
    kernel, dims = _check_scan(kind, kernel, sigma, omega, exps)
    depth = sigma.lattice.depth
    levels = range(depth + 1)
    # level -> offset -> (indices, edges) of that level's cubes on one axis
    cubes = [[_axis_cubes(g, lv, depth) for g in _grids_for(family, 1, depth)] for lv in levels]
    found = {}  # (offset per axis, level tuple) -> (max, flat index) of that block
    if family == "onethird":
        joined = [join_axes([ax for _, ax in row], 1 << depth) for row in cubes]
        limit = max(len(index) for row in cubes for index, _ in row) ** sum(dims)
        for lv in _iproduct(levels, repeat=len(dims)):
            axis_levels = [level for level, dim in zip(lv, dims) for _ in range(dim)]
            counts = [[len(index) for index, _ in cubes[level]] for level in axis_levels]
            batch = math.prod(max(c) for c in counts)
            options = []  # per axis: (edges, [(offset, block slice)]) per call
            for level, c in zip(axis_levels, counts):
                if batch // max(c) * sum(c) <= limit:
                    batch = batch // max(c) * sum(c)
                    at = np.cumsum([0] + c).tolist()
                    blocks = [(u, slice(at[u], at[u + 1])) for u in range(len(c))]
                    options.append([(joined[level], blocks)])
                else:
                    options.append([(ax, [(u, slice(None))]) for u, (_, ax) in enumerate(cubes[level])])
            for call in _iproduct(*options):
                boxes = BoxGrid([ax for ax, _ in call])
                masses = [_prefix_masses(w, t, boxes) for w, t in zip((sigma, omega), _thetas(kind, exps))]
                vals = _products(kind, kernel, exps, list(zip(lv, dims)), masses)
                for block in _iproduct(*(blocks for _, blocks in call)):
                    sub = vals[tuple(at for _, at in block)]
                    k = int(np.argmax(sub))
                    found[tuple(u for u, _ in block), lv] = (sub.flat[k], k)
    # the grid tuple of offset 0 on every axis is the standard grid pair
    for lv, vals in _dyadic_levels(kind, kernel, sigma, omega, exps, dims):
        k = int(np.argmax(vals))
        found[(0,) * sum(dims), lv] = (vals.flat[k], k)
    best = -1.0
    best_at = None
    for offsets in _iproduct(range(len(cubes[0])), repeat=sum(dims)):
        for lv in _iproduct(levels, repeat=len(dims)):
            val, k = found[offsets, lv]
            if val > best:
                best, best_at = float(val), (offsets, lv, k)
    return CharacteristicResult(kind, best, _witness(family, dims, depth, cubes, *best_at), exps)


def _grids_for(family: str, dim: int, depth: int) -> list[DyadicGrid]:
    if family == "dyadic":
        return [standard_grid(dim, 0, depth)]
    return onethird_grids(dim, 0, depth)


def _dyadic_levels(kind, kernel, sigma, omega, exps, dims):
    """(level tuple, products) per level tuple of the standard grid pair,
    in product order, from the sigma and omega pyramids."""
    lat, m = sigma.lattice, None if len(dims) == 1 else dims[0]
    weights = zip((sigma, omega), _thetas(kind, exps))
    for (lv, ms), (_, mw) in zip(*(_level_masses(_cellwise(lat, w.density, t), lat, m) for w, t in weights)):
        yield lv, _products(kind, kernel, exps, list(zip(lv, dims)), (ms, mw))


def _witness(family, dims, depth, cubes, offsets, lv, k) -> DyadicRect | Cube:
    """The cube or rectangle at flat index k of a grid tuple's block."""
    axis_levels = [level for level, dim in zip(lv, dims) for _ in range(dim)]
    pos = np.unravel_index(k, [len(cubes[lvl][u][0]) for lvl, u in zip(axis_levels, offsets)])
    out, at = [], 0
    for level, dim in zip(lv, dims):
        here = offsets[at : at + dim]
        grid = _grids_for(family, dim, depth)[np.ravel_multi_index(here, (len(cubes[0]),) * dim)]
        index = tuple(cubes[level][u][0][int(p)] for u, p in zip(here, pos[at : at + dim]))
        out.append(Cube(grid, level, index))
        at += dim
    return out[0] if len(out) == 1 else DyadicRect(*out)


def _on_lattice(cubes, dims, depth: int) -> bool:
    """Whether the dyadic pyramid holds every cube: offsets 0, on the lattice."""
    return all(
        c.grid.dim == dim and 0 <= c.level <= depth
        and all(c.grid.offset(k, c.level) == 0 and 0 <= i < 1 << c.level for k, i in enumerate(c.index))
        for c, dim in zip(cubes, dims)
    )


def characteristic_at(
    kind: str,
    kernel: KernelHandle | None,
    witness,
    sigma: Weight,
    omega: Weight,
    exps: Exponents,
) -> float:
    """Re-evaluate one witness: the scan's batch evaluator on a batch of
    one, its masses read as the scan reads them."""
    kernel, dims = _check_scan(kind, kernel, sigma, omega, exps)
    cubes = (witness,) if kind == "one_param" else (witness.i_cube, witness.j_cube)
    lat = sigma.lattice
    levels = [(c.level, c.grid.dim) for c in cubes]
    pairs = list(zip((sigma, omega), _thetas(kind, exps)))
    if _on_lattice(cubes, dims, lat.depth):
        cells = [(i, lat.cells_per_axis >> c.level) for c in cubes for i in c.index]
        rect = Rect(tuple(i * s for i, s in cells), tuple((i + 1) * s for i, s in cells))
        m = None if len(dims) == 1 else dims[0]
        at = [c.level for c in cubes]
        masses = [_tree_mass(_cellwise(lat, w.density, t), lat, rect, at, m) for w, t in pairs]
    else:
        boxes = BoxGrid(
            _cube_axis(float(c.grid.offset(k, c.level)), c.level, range(i, i + 1), lat.depth)
            for c in cubes
            for k, i in enumerate(c.index)
        )
        masses = [_prefix_masses(w, t, boxes) for w, t in pairs]
    return float(_products(kind, kernel, exps, levels, masses).flat[0])
