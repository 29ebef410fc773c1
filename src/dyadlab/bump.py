"""Bump functionals on cubes and rectangles, and the four characteristics.

The theta-bump of a box Q under a weight with density u is

    vol(Q)^(1 - 1/theta) * (integral of u^theta over Q)^(1/theta)

with theta = 1 reducing to the plain mass.  Every bump here takes its
masses from lattice.box_masses through one map, _bump_map (boxes, slice
profiles and whole levels of them), and every characteristic value comes from
one batch evaluator, _products: kernel factor times the two bump powers
for the outer product of a batch of factor cubes.  The scan feeds it whole
grid levels, coarsest first, and keeps the first maximizer;
characteristic_at feeds it the witness alone.  Masses are differenced in
long double and rounded to float64 once; the bump and kernel powers then
run in float64 (the package's precision policy, see lattice), so they do
not depend on the platform's longdouble kind.  A box's mass does not
depend on the batch it is gathered in, so a reported witness re-evaluates
to the reported value bit for bit.
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
    Rect,
    Weight,
    _block_sums,
    _weight_masses,
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

    def level_values(self, levels: np.ndarray) -> np.ndarray:
        """level_value over an (N, 2) level array, evaluated once per
        distinct level pair, in float64."""
        pairs, where = np.unique(np.asarray(levels).reshape(-1, 2), axis=0, return_inverse=True)
        vals = np.array([self.level_value(int(a), int(b)) for a, b in pairs], dtype=np.float64)
        return vals[where.reshape(-1)]


# The power kernel of the characteristics is the product_frac handle.
PowerKernel = KernelHandle


def _bump_map(masses, vol: float, theta: float) -> np.ndarray:
    """vol^(1 - 1/theta) * mass^(1/theta), every bump in the package.

    Long-double masses are clamped at 0 and rounded to float64 once; the
    volume factor is one float64 power per call, so theta = 1 returns the
    rounded masses themselves."""
    masses = np.maximum(masses, _LD(0.0)).astype(np.float64)
    inv_theta = 1.0 / theta
    return float(vol) ** (1.0 - inv_theta) * np.power(masses, inv_theta)


def _bumps(w: Weight, theta: float, lo, hi, vol: float) -> np.ndarray:
    """Theta-bumps of w's boxes spanned by lo/hi, all of volume vol."""
    return _bump_map(_weight_masses(w, lo, hi, theta), vol, theta)


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
    prof = _bump_map(mass, cell_vol * j_rect.cells, theta)
    return Weight(make_lattice(m, w.lattice.depth), prof.reshape(-1))


def _level_profiles(w: Weight, theta: float, n: int, level: int) -> np.ndarray:
    """slice_profile(J).density, bit for bit, of every dyadic J of the last
    n axes at one level, from one block sum; J's index axes lead."""
    side = w.lattice.cells_per_axis >> level
    cell_vol = w.lattice.cell_side**n
    mass = _block_sums(np.power(w.density, float(theta)).astype(_LD), n, side) * _LD(cell_vol)
    return _bump_map(mass, cell_vol * side**n, theta)


def random_partition(lattice, seed: int, split_prob: float = 0.7) -> list[Rect]:
    """Random dyadic partition of the unit box into cell-aligned cubes.

    Walks the dyadic tree from the root; each cube splits into its 2^dim
    children with the given probability until the finest level.
    """
    rng = substream(seed, 404)
    out: list[Rect] = []
    stack = [(0, (0,) * lattice.dim)]
    while stack:
        level, idx = stack.pop()
        if level < lattice.depth and rng.uniform() < split_prob:
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


def _level_cubes(grid: DyadicGrid, level: int) -> list[np.ndarray]:
    """Per-axis indices of the level's cubes meeting the open unit box."""
    side = 1.0 / (1 << level)
    out = []
    for k in range(grid.dim):
        off = float(grid.offset(k, level))
        first = math.floor(-off / side)
        if (first + 1) * side + off <= 0:
            first += 1
        ks = np.arange(first, first + (1 << level) + 2, dtype=np.int64)
        out.append(ks[ks * side + off < 1])
    return out


@dataclass(frozen=True)
class _Factor:
    """A batch of same-level cubes of one grid: the outer product of
    per-axis index vectors, with their clipped edges in cell units."""

    grid: DyadicGrid
    level: int
    index: list
    lo: list
    hi: list


def _factor(grid: DyadicGrid, level: int, index, depth: int) -> _Factor:
    ncells = 1 << depth
    side_cells = float(2.0 ** (depth - level))
    lo, hi = [], []
    for k, idx in enumerate(index):
        a = np.asarray(idx, dtype=np.int64) * side_cells + float(grid.offset(k, level)) * ncells
        lo.append(np.clip(a, 0.0, ncells))
        hi.append(np.clip(a + side_cells, 0.0, ncells))
    return _Factor(grid, level, list(index), lo, hi)


def _products(kind, kernel, sigma, omega, exps, factors) -> np.ndarray:
    """Kernel x bump products for the outer product of the factor batches.

    One result axis per lattice axis.  Volumes are the full cube volumes
    even where a cube pokes out of the unit box, where the density is zero.
    """
    lo, hi = [], []
    vol = 1.0
    kval = 1.0
    for fac, k_exp in zip(factors, (kernel.i_exp, kernel.j_exp)):
        side_vol = 2.0 ** (-fac.level * fac.grid.dim)
        lo += fac.lo
        hi += fac.hi
        vol *= side_vol
        kval *= side_vol**k_exp
    lo, hi = np.ix_(*lo), np.ix_(*hi)
    bump_s, bump_w = _BUMPED[kind]
    bs = _bumps(sigma, exps.theta if bump_s else 1.0, lo, hi, vol)
    bw = _bumps(omega, exps.theta if bump_w else 1.0, lo, hi, vol)
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


def _grids_for(family: str, dim: int, depth: int) -> list[DyadicGrid]:
    if family == "dyadic":
        return [standard_grid(dim, 0, depth)]
    return onethird_grids(dim, 0, depth)


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
    Grid tuples run outermost, then level tuples, each in product order.
    """
    if family is None:
        family = "onethird" if kind == "no_bump" else "dyadic"
    if family not in ("dyadic", "onethird"):
        raise DomainError(f"unknown family {family!r}")
    kernel, dims = _check_scan(kind, kernel, sigma, omega, exps)
    depth = sigma.lattice.depth
    per_grid = [  # factor -> grid -> level -> batch of that level's cubes
        [
            [_factor(grid, lv, _level_cubes(grid, lv), depth) for lv in range(depth + 1)]
            for grid in _grids_for(family, dim, depth)
        ]
        for dim in dims
    ]
    best = -1.0
    best_at: DyadicRect | Cube | None = None
    for grids in _iproduct(*per_grid):
        for factors in _iproduct(*grids):
            vals = _products(kind, kernel, sigma, omega, exps, factors)
            k = int(np.argmax(vals))
            if vals.flat[k] > best:
                best = float(vals.flat[k])
                best_at = _witness(factors, np.unravel_index(k, vals.shape))
    if best_at is None:
        raise DomainError("empty rectangle family")
    return CharacteristicResult(kind, best, best_at, exps)


def _witness(factors, pos) -> DyadicRect | Cube:
    cubes = []
    for fac in factors:
        here, pos = pos[: fac.grid.dim], pos[fac.grid.dim :]
        index = tuple(int(ks[p]) for ks, p in zip(fac.index, here))
        cubes.append(Cube(fac.grid, fac.level, index))
    return cubes[0] if len(cubes) == 1 else DyadicRect(*cubes)


def characteristic_at(
    kind: str,
    kernel: KernelHandle | None,
    witness,
    sigma: Weight,
    omega: Weight,
    exps: Exponents,
) -> float:
    """Re-evaluate one witness: the scan's batch evaluator on a batch of one."""
    kernel, _ = _check_scan(kind, kernel, sigma, omega, exps)
    cubes = (witness,) if kind == "one_param" else (witness.i_cube, witness.j_cube)
    depth = sigma.lattice.depth
    factors = [_factor(c.grid, c.level, [[i] for i in c.index], depth) for c in cubes]
    return float(_products(kind, kernel, sigma, omega, exps, factors).flat[0])
