"""Bump functionals on cubes and rectangles, and the four characteristics.

The theta-bump of a box Q under a weight with density u is

    vol(Q)^(1 - 1/theta) * (integral of u^theta over Q)^(1/theta)

with theta = 1 reducing to the plain mass.  Every bump here is one map,
_bump_map, of float64 masses, and every characteristic value comes from
one batch evaluator, _products: kernel factor times the two bump powers
for the outer product of a batch of factor cubes, the kernel factor
always KernelHandle.level_value, so a level table serves wherever the
product kernel does but in one_param.  Each grid kind has one engine.
The dyadic family's masses come from lattice's dyadic pyramid: its scan
feeds _products one level tuple at a time.  A single box is summed from
its own cells by the same tree, lattice's _own_mass: bump_cube's box,
bump_rect's, characteristic_at's factor cubes of std and shifted grids
(ones finer than the lattice included, clipped to the unit box, each cell
counted by the share of it the box covers), and slice_profile's J under
every slice; on a dyadic cube or rectangle these are the pyramid's bits.
Every one-third grid tuple, the standard one (offset 0 on every axis)
included, comes from lattice's refined pyramid, which holds the cubes of
all three offsets of an axis side by side: the scan feeds _products one
level tuple at a time, split by offset where the block would be large,
and keeps the first maximizer of each grid tuple's cubes;
characteristic_at rebuilds a third grid's box, the u = 0 grid's included,
from its own cells by the same steps.  No bump reads a prefix table.  The
bump and kernel powers run in float64 (the package's precision policy,
see lattice).  A box's mass does not depend on the batch it is read in,
so a reported witness re-evaluates to the reported value bit for bit.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Mapping

import numpy as np

from .errors import DomainError, ShapeError
from .grids import Cube, DyadicGrid, DyadicRect, _check_cube, onethird_grids, standard_grid
from .lattice import (
    Rect,
    Weight,
    _cellwise,
    _check_dim,
    _check_rect,
    _check_theta,
    _factor_axes,
    _level_masses,
    _own_mass,
    _third_mass,
    _ThirdPyramid,
    make_lattice,
    rect_volume,
    substream,
)


@dataclass(frozen=True)
class Exponents:
    """Integrability and smoothing exponents shared by the characteristics
    and the norm estimate; the embedding checks take their r and s as
    arguments."""

    p: float
    q: float
    alpha: float
    beta: float
    m: int = 1
    n: int = 1
    theta: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.p < self.q < math.inf:
            raise DomainError(f"need 1 < p < q < inf, got p={self.p}, q={self.q}")
        _check_theta(self.theta)
        kernel = KernelHandle.product_frac(self.alpha, self.beta, self.m, self.n)
        self.__dict__.update(m=kernel.m, n=kernel.n)

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
    a custom handle carries an explicit level-pair table.  level_value is
    the one formula for K that the characteristics, the forms and the
    norm estimate read.
    """

    kind: str
    alpha: float
    beta: float
    m: int
    n: int
    table: Mapping[tuple[int, int], float] | None = None

    @classmethod
    def product_frac(cls, alpha: float, beta: float, m: int, n: int) -> "KernelHandle":
        m, n = _check_dim("m", m), _check_dim("n", n)
        if not 0.0 < alpha < m:
            raise DomainError(f"alpha must lie in (0, m)=(0, {m}), got {alpha}")
        if not 0.0 < beta < n:
            raise DomainError(f"beta must lie in (0, n)=(0, {n}), got {beta}")
        return cls("product_frac", float(alpha), float(beta), m, n)

    @classmethod
    def from_exponents(cls, exps: Exponents) -> "KernelHandle":
        return cls.product_frac(exps.alpha, exps.beta, exps.m, exps.n)

    @classmethod
    def from_table(cls, table: Mapping[tuple[int, int], float], m: int, n: int) -> "KernelHandle":
        m, n = _check_dim("m", m), _check_dim("n", n)
        for key, val in table.items():
            if not (math.isfinite(val) and val >= 0.0):
                raise DomainError(f"kernel table value at {key} must be finite and >= 0")
        return cls("table", math.nan, math.nan, m, n, dict(table))

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


def _vol_factor(vol: float, theta: float) -> float:
    """vol^(1 - 1/theta), a bump's volume factor: one power of Python
    floats, which numpy's vectorized power may round differently."""
    return float(vol) ** (1.0 - 1.0 / theta)


def _bump_map(masses: np.ndarray, vol, theta: float) -> np.ndarray:
    """vol^(1 - 1/theta) * mass^(1/theta) of float64 masses, every bump in
    the package.  vol is the boxes' float volume, or an array of volume
    factors (_vol_factor) that broadcasts against masses: a column with
    one per row of a stack of levels, which gives each row the bits of
    its level alone.  theta = 1 returns the masses themselves."""
    if theta == 1.0:
        return masses
    factor = vol if isinstance(vol, np.ndarray) else _vol_factor(vol, theta)
    return factor * np.power(masses, 1.0 / theta)


def _box_bump(rect: Rect, w: Weight, theta: float, groups=None) -> float:
    """Theta-bump of a cell-aligned box, its mass summed from its own
    cells, the groups of axes one after the other (all together by
    default)."""
    theta = _check_theta(theta)
    _check_rect(w.lattice, rect)
    mass = _own_mass(w.lattice, w.density, rect.lo, rect.hi, theta, groups)
    return float(_bump_map(mass, rect_volume(w.lattice, rect), theta))


def bump_cube(rect: Rect, w: Weight, theta: float) -> float:
    """Theta-bump of a cell-aligned box; theta = 1 gives the plain mass.
    On a dyadic cube it is the bump of the dyadic pyramid's mass."""
    return _box_bump(rect, w, theta)


def bump_rect(i_rect: Rect, j_rect: Rect, w: Weight, theta: float) -> float:
    """Theta-bump of the product box I x J under a weight on m+n axes,
    I's axes summed before J's; on a dyadic rectangle it is the bump of
    the product pyramid's mass."""
    if i_rect.dim + j_rect.dim != w.lattice.dim:
        raise ShapeError(
            f"factors span {i_rect.dim}+{j_rect.dim} axes, lattice has {w.lattice.dim}"
        )
    joint = Rect(i_rect.lo + j_rect.lo, i_rect.hi + j_rect.hi)
    return _box_bump(joint, w, theta, (range(i_rect.dim), range(i_rect.dim, w.lattice.dim)))


def slice_profile(j_rect: Rect, w: Weight, theta: float) -> Weight:
    """Collapse the last axes: density x -> bump of j_rect under the slice
    at x.  Exact for piecewise-constant densities, which makes the iterated
    identity hold to rounding error.  Each slice's mass is J's cells
    summed by the own-cells tree (lattice._own_mass, the slices a batch),
    so it is within an ulp of its exact sum and a massless slice is 0.
    """
    theta = _check_theta(theta)
    d = w.lattice.dim
    n = j_rect.dim
    if not 1 <= n < d:
        raise ShapeError(f"slice needs 1..{d - 1} trailing axes, got {n}")
    m = d - n
    cells = w.lattice.cells_per_axis
    for k in range(n):
        if not 0 <= j_rect.lo[k] < j_rect.hi[k] <= cells:
            raise DomainError(f"slice box {j_rect} leaves the lattice")
    n_lat = make_lattice(n, w.lattice.depth)
    mass = _own_mass(n_lat, w.density, j_rect.lo, j_rect.hi, theta)
    prof = _bump_map(mass, n_lat.cell_volume * j_rect.cells, theta)
    return Weight(make_lattice(m, w.lattice.depth), prof.reshape(-1))


def _uniforms(rng: np.random.Generator, chunk: int = 1024):
    """rng's uniform doubles in [0, 1), drawn chunk at a time: the same
    values, in the same order, as one rng.uniform() call each."""
    while True:
        yield from rng.random(chunk).tolist()


def random_partition(lattice, seed: int, split_prob: float = 0.7) -> list[Rect]:
    """Random dyadic partition of the unit box into cell-aligned cubes.

    Walks the dyadic tree from the root; each cube splits into its 2^dim
    children with probability split_prob in [0, 1] until the finest level.
    """
    if not 0.0 <= split_prob <= 1.0:
        raise DomainError(f"split_prob must lie in [0, 1], got {split_prob!r}")
    draws = _uniforms(substream(seed, 404))
    depth, cells = lattice.depth, lattice.cells_per_axis
    # per level, each child's lo corner offset from its parent's, in cells
    offsets = [
        [tuple(c * (cells >> (level + 1)) for c in corner) for corner in _iproduct((0, 1), repeat=lattice.dim)]
        for level in range(depth)
    ]
    out: list[Rect] = []
    stack = [(0, (0,) * lattice.dim)]  # (level, lo corner in cells)
    while stack:
        level, lo = stack.pop()
        if level < depth and next(draws) < split_prob:
            stack += [(level + 1, tuple(map(operator.add, lo, off))) for off in offsets[level]]
        else:
            side = cells >> level
            out.append(Rect(lo, tuple([a + side for a in lo])))
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


def _thirds(grid: DyadicGrid, axis: int, level: int) -> int:
    """A std or third grid's level offset on one axis, level >= 0, in
    thirds of the level's side: 0, 1 or 2."""
    return int(grid.offset(axis, level) * (3 << level))


def _axis_cubes(grid: DyadicGrid, level: int) -> range:
    """Indices of a one-axis std or third grid's level cubes meeting the
    open unit interval: an offset grid has one more, at -1."""
    return range(-1 if _thirds(grid, 0, level) else 0, 1 << level)


def _thetas(kind: str, exps: Exponents) -> tuple[float, float]:
    """The exponents of the sigma and omega bumps of a characteristic."""
    return tuple(exps.theta if bumped else 1.0 for bumped in _BUMPED[kind])


def _products(kind, kernel, exps, levels, masses) -> np.ndarray:
    """Kernel x bump products for a batch of factor-cube products, from
    the float64 sigma and omega masses of its boxes.

    levels holds each factor's (level, dim).  K is the kernel's
    level_value, one_param's one factor at second level 0, where the
    product kernel's second term is exactly 1.0.  Volumes are the full
    cube volumes even where a cube pokes out of the unit box, where the
    density is zero.
    """
    vol = 1.0
    for level, dim in levels:
        vol *= 2.0 ** (-level * dim)
    kval = kernel.level_value(levels[0][0], levels[1][0] if len(levels) > 1 else 0)
    bs, bw = (_bump_map(ms, vol, theta) for ms, theta in zip(masses, _thetas(kind, exps)))
    return kval * np.power(bs, 1.0 / exps.p_prime) * np.power(bw, 1.0 / exps.q)


def _check_scan(kind, kernel, sigma, omega, exps) -> tuple[KernelHandle, tuple[int, ...]]:
    """Validated kernel and the factor dimensions of a characteristic."""
    if kind not in _BUMPED:
        raise DomainError(f"unknown characteristic kind {kind!r}")
    if kernel is None:
        kernel = KernelHandle.from_exponents(exps)
    if (kernel.m, kernel.n) != (exps.m, exps.n):
        raise ShapeError(f"kernel spans {kernel.m}+{kernel.n} axes, exponents {exps.m}+{exps.n}")
    if kind == "one_param" and kernel.kind != "product_frac":
        raise DomainError(f"one_param needs a product_frac kernel, got {kernel.kind!r}")
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

    kernel None is the product kernel of exps.  The rectangle kinds take
    any level kernel whose (m, n) are the exponents' (ShapeError
    otherwise), a table raising DomainError at a level pair it lacks;
    one_param takes only the product kernel.

    family "dyadic" scans the standard grid pair; "onethird" scans all
    3^m * 3^n shifted pairs (the no-bump default, standing in for the
    supremum over arbitrary rectangles).  one_param scans cubes only.

    The result is the first maximum in scan order: grid tuples outermost,
    then level tuples, each in product order, then cubes in C order.  A
    grid tuple picks one of the family's offsets on every lattice axis.
    The dyadic family's one tuple, the standard grid pair, is read one
    level tuple of the two dyadic pyramids at a time.  Every one-third
    tuple, the standard pair's (offset 0 on every axis) included, reads
    the refined pyramid (lattice._ThirdPyramid), walked once for sigma and
    omega stacked on a batch axis, one level tuple holding the cubes of
    all three offsets of each axis at once, split by offset, leading axes
    first, where one weight's block could pass twice the largest
    single-grid block.  Each grid tuple's cubes are searched on their own,
    so the grouping moves no value and no witness.  Before the first block
    the one-third scan estimates its largest array, both weights' rows
    counted, and raises ResourceError past lattice.ARRAY_BUDGET_BYTES.
    """
    if family is None:
        family = "onethird" if kind == "no_bump" else "dyadic"
    if family not in ("dyadic", "onethird"):
        raise DomainError(f"unknown family {family!r}")
    kernel, dims = _check_scan(kind, kernel, sigma, omega, exps)
    lat = sigma.lattice
    levels = range(lat.depth + 1)
    grids = _grids_for(family, 1, lat.depth)
    if family == "onethird":
        blocks = _third_levels(kind, kernel, sigma, omega, exps, dims)
    else:
        blocks = (((0,) * lat.dim, lv, vals) for lv, vals in _dyadic_levels(kind, kernel, sigma, omega, exps, dims))
    found = {}  # (offset per axis, level tuple) -> (max, flat index) of that grid tuple
    for offsets, lv, vals in blocks:
        k = int(np.argmax(vals))
        found[offsets, lv] = (vals.flat[k], k)
    best = -1.0
    best_at = None
    for offsets in _iproduct(range(len(grids)), repeat=lat.dim):
        for lv in _iproduct(levels, repeat=len(dims)):
            val, k = found[offsets, lv]
            if val > best:
                best, best_at = float(val), (offsets, lv, k)
    if best_at is None:
        raise DomainError(f"no {kind} value is comparable: every product is NaN (theta={exps.theta!r})")
    return CharacteristicResult(kind, best, _witness(family, dims, lat.depth, *best_at), exps)


def _factor_m(dims) -> int | None:
    """The m of the pyramids' factors: None for one_param's one factor."""
    return None if len(dims) == 1 else dims[0]


def _grids_for(family: str, dim: int, depth: int) -> list[DyadicGrid]:
    if family == "dyadic":
        return [standard_grid(dim, 0, depth)]
    return onethird_grids(dim, 0, depth)


def _dyadic_levels(kind, kernel, sigma, omega, exps, dims):
    """(level tuple, products) per level tuple of the standard grid pair,
    in the pyramids' order (_level_masses), from the sigma and omega
    pyramids."""
    lat, m = sigma.lattice, _factor_m(dims)
    weights = zip((sigma, omega), _thetas(kind, exps))
    for (lv, ms), (_, mw) in zip(*(_level_masses(_cellwise(lat, w.density, t), lat, m) for w, t in weights)):
        yield lv, _products(kind, kernel, exps, list(zip(lv, dims)), (ms, mw))


def _third_levels(kind, kernel, sigma, omega, exps, dims):
    """(grid tuple, level tuple, products) per one-third grid tuple, the
    standard pair's included, and level tuple, the products shaped as the
    grid tuple's cubes, from one refined pyramid of sigma and omega
    stacked on a batch axis, whose blocks stay below twice the largest
    single-grid block per weight.  Each weight's cellwise values are
    written straight into the batch array."""
    lat = sigma.lattice
    pyramid = _ThirdPyramid(lat, _factor_m(dims))
    weights = np.empty((2,) + lat.shape)
    for out, w, t in zip(weights, (sigma, omega), _thetas(kind, exps)):
        _cellwise(lat, w.density, t, out)
    # per level and grid, the residue mod 3 of its cubes' positions
    at = [[(_thirds(g, 0, level) + 2) % 3 for g in onethird_grids(1, 0, lat.depth)] for level in range(lat.depth + 1)]
    for lv, groups, masses in pyramid.masses(weights):
        vals = _products(kind, kernel, exps, list(zip(lv, dims)), masses)
        axis_levels = [level for level, dim in zip(lv, dims) for _ in range(dim)]
        # per axis, each grid the block holds and its positions there
        reads = [
            [(u, slice(r, None, 3) if g is None else slice(None)) for u, r in enumerate(at[level]) if g in (None, r)]
            for level, g in zip(axis_levels, groups)
        ]
        for pick in _iproduct(*reads):
            yield tuple(u for u, _ in pick), lv, vals[tuple(view for _, view in pick)]


def _witness(family, dims, depth, offsets, lv, k) -> DyadicRect | Cube:
    """The cube or rectangle at flat index k of a grid tuple's cubes."""
    axes = _grids_for(family, 1, depth)
    axis_levels = [level for level, dim in zip(lv, dims) for _ in range(dim)]
    index = [_axis_cubes(axes[u], level) for u, level in zip(offsets, axis_levels)]
    pos = np.unravel_index(k, [len(ix) for ix in index])
    out, at = [], 0
    for level, dim in zip(lv, dims):
        grid = _grids_for(family, dim, depth)[np.ravel_multi_index(offsets[at : at + dim], (len(axes),) * dim)]
        out.append(Cube(grid, level, tuple(index[a][int(pos[a])] for a in range(at, at + dim))))
        at += dim
    return out[0] if len(out) == 1 else DyadicRect(*out)


def _third_starts(cubes, depth: int) -> list | None:
    """Per lattice axis (level, first block) of the cubes in the refined
    pyramid, or None unless each is a cube of a std or third grid at a
    level 0..depth meeting the unit box, and one of them is a third
    grid's: the boxes of std grids alone are the dyadic pyramid's."""
    out = []
    for c in cubes:
        if c.grid.kind == "shift" or not 0 <= c.level <= depth:
            return None
        for k, i in enumerate(c.index):
            t = 3 * i + _thirds(c.grid, k, c.level)
            if not -2 <= t < 3 << c.level:
                return None
            out.append((c.level, t))
    return None if all(c.grid.kind == "std" for c in cubes) else out


def characteristic_at(
    kind: str,
    kernel: KernelHandle | None,
    witness,
    sigma: Weight,
    omega: Weight,
    exps: Exponents,
) -> float:
    """Re-evaluate one witness: the scan's batch evaluator on a batch of
    one, its masses read as the scan reads them.

    The witness is a Cube for one_param and a DyadicRect otherwise, each
    cube's grid spanning its factor's axes (ShapeError otherwise).  Masses
    are read in one of two ways.  A box of std and third grids at levels
    0..depth with a third grid among them, the u = 0 grid's included, is
    summed from its own cells by the refined pyramid's steps, as the
    one-third scan reads it.  Every other box, one of std grids alone (a
    dyadic-family witness), a shifted grid's or one finer than the
    lattice, is summed from its own cells by the dyadic pyramid's tree
    (lattice._own_mass, each factor's axes in turn), clipped to the unit
    box, each cell counted by the share of it the box covers.  So a
    scan's witness re-evaluates to its value bit for bit, and a box no
    scan reads is within about an ulp of its exact mass per factor.
    """
    kernel, dims = _check_scan(kind, kernel, sigma, omega, exps)
    shape = Cube if kind == "one_param" else DyadicRect
    if not isinstance(witness, shape):
        raise ShapeError(f"a {kind} witness is a {shape.__name__}, got {type(witness).__name__}")
    cubes = (witness,) if kind == "one_param" else (witness.i_cube, witness.j_cube)
    spans = tuple(c.grid.dim if isinstance(c, Cube) and len(c.index) == c.grid.dim else None for c in cubes)
    if spans != dims:
        raise ShapeError(f"a {kind} witness's cubes span {spans} axes, the lattice's factors {dims}")
    cubes = tuple(map(_check_cube, cubes))
    lat = sigma.lattice
    levels = list(zip((c.level for c in cubes), dims))
    pairs = list(zip((sigma, omega), _thetas(kind, exps)))
    if (starts := _third_starts(cubes, lat.depth)) is not None:
        masses = [_third_mass(_cellwise(lat, w.density, t), lat, starts) for w, t in pairs]
    else:
        n = lat.cells_per_axis
        lo, hi = ([min(max(float(x * n), 0.0), n) for c in cubes for x in c.bounds()[side]] for side in (0, 1))
        groups = _factor_axes(sigma.density, lat, _factor_m(dims))
        masses = [_own_mass(lat, w.density, lo, list(map(max, lo, hi)), t, groups) for w, t in pairs]
    return float(_products(kind, kernel, exps, levels, masses).flat[0])
