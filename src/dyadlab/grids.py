"""Dyadic grids: standard, binary-shifted, and the fixed third-offset family.

A grid is parameterized per axis.  The binary-shifted family moves level l
by the tail sum of finer shift bits, so every offset is a multiple of the
finest side and grids stay nested.  The third-offset family alternates a
+-u/3 fraction of the side between consecutive levels, which also nests but
is never cell-aligned; geometry for those is done in exact rationals where
it matters and floats elsewhere.

Also here: goodness classification against ancestor skeletons, dyadic
point distance, the triple-cube sandwich search, and the Monte Carlo
estimate of the bad-cube probability over random shifts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct

import numpy as np

from .errors import (
    ContractViolationError,
    DomainError,
    FormatError,
    ScopeError,
)
from .lattice import substream

GRID_MAGIC = "GRID1"


def _pow2(k: int) -> Fraction:
    return Fraction(1, 1 << k) if k >= 0 else Fraction(1 << (-k))


@dataclass(frozen=True)
class ShiftParam:
    """Shift bits for one axis, one bit per level in (lo, hi]."""

    lo: int
    hi: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.hi < self.lo:
            raise DomainError(f"level range {self.lo}..{self.hi} is inverted")
        if len(self.bits) != self.hi - self.lo:
            raise DomainError(
                f"need {self.hi - self.lo} bits for levels {self.lo}..{self.hi}, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise DomainError("shift bits must be 0 or 1")

    def offset_cells(self, level: int) -> int:
        """Offset of the level's left endpoints, in units of 2^-hi.

        Sums bits of levels strictly finer than `level`; levels at or below
        the range contribute the full tail.
        """
        total = 0
        for i in range(max(level + 1, self.lo + 1), self.hi + 1):
            total += self.bits[i - self.lo - 1] << (self.hi - i)
        return total

    @property
    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class DyadicGrid:
    """Nested dyadic grid on R^dim, truncated to levels lo..hi for queries.

    kind "std": no offsets.  kind "shift": per-axis ShiftParam.  kind
    "third": per-axis u in {0,1,2} with offset ((-1)^l u/3 mod 1) * side.
    """

    dim: int
    lo: int
    hi: int
    kind: str
    shifts: tuple[ShiftParam, ...] | None = None
    third: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"dim must be positive, got {self.dim}")
        if self.hi < self.lo:
            raise DomainError(f"level range {self.lo}..{self.hi} is inverted")
        if self.kind == "shift":
            if self.shifts is None or len(self.shifts) != self.dim:
                raise DomainError("shift grid needs one ShiftParam per axis")
            for sp in self.shifts:
                if (sp.lo, sp.hi) != (self.lo, self.hi):
                    raise DomainError("ShiftParam level range must match the grid")
        elif self.kind == "third":
            if self.third is None or len(self.third) != self.dim:
                raise DomainError("third grid needs one u per axis")
            if any(u not in (0, 1, 2) for u in self.third):
                raise DomainError("third offsets must be in {0, 1, 2}")
        elif self.kind != "std":
            raise DomainError(f"unknown grid kind {self.kind!r}")

    def offset(self, axis: int, level: int) -> Fraction:
        """Exact absolute offset of level's left endpoints on one axis."""
        if self.kind == "std":
            return Fraction(0)
        if self.kind == "shift":
            return self.shifts[axis].offset_cells(level) * _pow2(self.hi)
        u = self.third[axis]
        c = (u if level % 2 == 0 else -u) % 3
        return Fraction(c, 3) * _pow2(level)

    def offset_float(self, axis: int, level: int) -> float:
        return float(self.offset(axis, level))

    def cube_at(self, point, level: int) -> "Cube":
        """The level cube containing the point (exact index arithmetic)."""
        side = _pow2(level)
        idx = []
        for k in range(self.dim):
            x = Fraction(point[k]) - self.offset(k, level)
            idx.append(math.floor(x / side))
        return Cube(self, level, tuple(idx))

    def descriptor(self) -> str:
        if self.kind == "third":
            flat = 0
            for u in self.third:
                flat = flat * 3 + u
            kind = f"third:{flat}"
            beta = ""
        elif self.kind == "shift":
            kind = "shift"
            beta = "".join(sp.bitstring for sp in self.shifts)
        else:
            kind = "std"
            beta = ""
        return f"{GRID_MAGIC} dim={self.dim} kind={kind} levels={self.lo}..{self.hi} beta={beta}"


@dataclass(frozen=True)
class Cube:
    """One grid cube: level plus integer index per axis."""

    grid: DyadicGrid
    level: int
    index: tuple[int, ...]

    @property
    def side(self) -> float:
        return float(_pow2(self.level))

    def bounds(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        side = _pow2(self.level)
        lo = tuple(self.index[k] * side + self.grid.offset(k, self.level) for k in range(self.grid.dim))
        hi = tuple(a + side for a in lo)
        return lo, hi

    def bounds_float(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        lo, hi = self.bounds()
        return tuple(map(float, lo)), tuple(map(float, hi))

    def parent(self) -> "Cube":
        return self.ancestor(1)

    def ancestor(self, j: int) -> "Cube":
        if j < 0:
            raise DomainError("ancestor steps must be nonnegative")
        if j == 0:
            return self
        lvl = self.level - j
        side = _pow2(lvl)
        lo, _ = self.bounds()
        idx = tuple(
            math.floor((lo[k] - self.grid.offset(k, lvl)) / side) for k in range(self.grid.dim)
        )
        return Cube(self.grid, lvl, idx)

    def contains_point(self, point) -> bool:
        lo, hi = self.bounds()
        return all(lo[k] <= Fraction(point[k]) < hi[k] for k in range(self.grid.dim))

    def contains_box(self, box_lo, box_hi) -> bool:
        lo, hi = self.bounds()
        return all(
            lo[k] <= Fraction(box_lo[k]) and Fraction(box_hi[k]) <= hi[k]
            for k in range(self.grid.dim)
        )


@dataclass(frozen=True)
class DyadicRect:
    """Product of a cube from an m-dim grid and a cube from an n-dim grid.

    Such products form the partial product family: nested-or-disjoint fails
    across the two factors, so no grid structure is claimed here.
    """

    i_cube: Cube
    j_cube: Cube

    @property
    def m(self) -> int:
        return self.i_cube.grid.dim

    @property
    def n(self) -> int:
        return self.j_cube.grid.dim


def standard_grid(dim: int, lo: int, hi: int) -> DyadicGrid:
    return DyadicGrid(dim, lo, hi, "std")


def sample_shift(seed: int, lo: int, hi: int, axis: int = 0) -> ShiftParam:
    """Uniform shift bits, one stream per (seed, axis)."""
    if lo > hi:
        raise DomainError(f"level range {lo}..{hi} is inverted")
    rng = substream(seed, 303, axis)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=hi - lo))
    return ShiftParam(lo, hi, bits)


def random_grid(shifts) -> DyadicGrid:
    shifts = tuple(shifts)
    if not shifts:
        raise DomainError("need at least one ShiftParam")
    return DyadicGrid(len(shifts), shifts[0].lo, shifts[0].hi, "shift", shifts=shifts)


def sample_grid(seed: int, dim: int, lo: int, hi: int) -> DyadicGrid:
    return random_grid(sample_shift(seed, lo, hi, axis=k) for k in range(dim))


def onethird_grids(dim: int, lo: int, hi: int) -> list[DyadicGrid]:
    """The fixed 3^dim family; index u runs lexicographically per axis."""
    if not 1 <= dim <= 4:
        raise DomainError(f"dim must be in 1..4, got {dim}")
    out = []
    for combo in _iproduct((0, 1, 2), repeat=dim):
        out.append(DyadicGrid(dim, lo, hi, "third", third=combo))
    return out


def parse_grid(line: str) -> DyadicGrid:
    parts = line.split()
    if not parts or parts[0] != GRID_MAGIC:
        raise FormatError(f"expected '{GRID_MAGIC} ...', got {line!r}")
    fields = {}
    for tok in parts[1:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise FormatError(f"malformed token {tok!r}")
        fields[key] = val
    try:
        dim = int(fields["dim"])
        lo_s, _, hi_s = fields["levels"].partition("..")
        lo, hi = int(lo_s), int(hi_s)
        kind = fields["kind"]
        beta = fields.get("beta", "")
    except (KeyError, ValueError):
        raise FormatError(f"grid descriptor missing fields: {line!r}") from None
    if kind == "std":
        return standard_grid(dim, lo, hi)
    if kind.startswith("third:"):
        try:
            flat = int(kind.split(":", 1)[1])
        except ValueError:
            raise FormatError(f"bad third index in {kind!r}") from None
        if not 0 <= flat < 3**dim:
            raise FormatError(f"third index {flat} out of range for dim={dim}")
        combo = []
        for _ in range(dim):
            combo.append(flat % 3)
            flat //= 3
        return DyadicGrid(dim, lo, hi, "third", third=tuple(reversed(combo)))
    if kind == "shift":
        per = hi - lo
        if len(beta) != per * dim or any(c not in "01" for c in beta):
            raise FormatError(f"beta needs {per * dim} bits, got {beta!r}")
        shifts = tuple(
            ShiftParam(lo, hi, tuple(int(c) for c in beta[k * per : (k + 1) * per]))
            for k in range(dim)
        )
        return random_grid(shifts)
    raise FormatError(f"unknown grid kind {kind!r}")


def verify_grid(grid: DyadicGrid, probes: int = 64) -> None:
    """Exhaustively check tiling and nesting over the level range.

    Tiling: probe points across the box land in cubes whose bounds contain
    them, and consecutive indices abut exactly.  Nesting: every probed
    cube's parent contains it (exact rational comparison).
    """
    for level in range(grid.lo, grid.hi + 1):
        for t in range(probes):
            base = Fraction(2 * t + 1, 2 * probes)
            point = tuple((base + Fraction(k, 7)) % 1 for k in range(grid.dim))
            cube = grid.cube_at(point, level)
            if not cube.contains_point(point):
                raise ContractViolationError(f"tiling broken at level {level}: {point}")
            lo, hi = cube.bounds()
            for k in range(grid.dim):
                nxt = Cube(grid, level, tuple(cube.index[j] + (1 if j == k else 0) for j in range(grid.dim)))
                nlo, _ = nxt.bounds()
                if nlo[k] != hi[k]:
                    raise ContractViolationError(f"abutment broken at level {level}")
            if level > grid.lo:
                par = cube.parent()
                plo, phi = par.bounds()
                if not all(plo[k] <= lo[k] and hi[k] <= phi[k] for k in range(grid.dim)):
                    raise ContractViolationError(f"nesting broken at level {level}")


def dyadic_distance(x, u, grid: DyadicGrid) -> float:
    """Side of the smallest grid cube containing both points.

    Points sharing a finest cube give the finest side; points split even at
    the coarsest level give the unit box side.
    """
    x = tuple(x) if hasattr(x, "__len__") else (x,)
    u = tuple(u) if hasattr(u, "__len__") else (u,)
    for level in range(grid.hi, grid.lo - 1, -1):
        if grid.cube_at(x, level).index == grid.cube_at(u, level).index:
            return float(_pow2(level))
    return 1.0


@dataclass(frozen=True)
class GoodnessParams:
    eps: float = 0.25
    r: int = 8

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise DomainError(f"eps must be in (0,1), got {self.eps}")
        if self.r < 1:
            raise DomainError(f"r must be >= 1, got {self.r}")


def _axis_skeleton_distance(j_lo: float, j_hi: float, k_lo: float, k_hi: float) -> float:
    """Distance from the interval [j_lo, j_hi] to {k_lo, mid, k_hi}."""
    best = math.inf
    for t in (k_lo, 0.5 * (k_lo + k_hi), k_hi):
        if t < j_lo:
            d = j_lo - t
        elif t > j_hi:
            d = t - j_hi
        else:
            d = 0.0
        best = min(best, d)
    return best


def good_in(cube: Cube, anc: Cube, eps: float) -> bool:
    """Per-axis skeleton separation of cube inside its ancestor."""
    j_side = cube.side
    k_side = anc.side
    threshold = 2.0 * j_side**eps * k_side ** (1.0 - eps)
    j_lo, j_hi = cube.bounds_float()
    k_lo, k_hi = anc.bounds_float()
    for k in range(cube.grid.dim):
        if _axis_skeleton_distance(j_lo[k], j_hi[k], k_lo[k], k_hi[k]) <= threshold:
            return False
    return True


def is_good(cube: Cube, params: GoodnessParams) -> bool:
    """Good means good in every ancestor at least params.r levels coarser.

    All those ancestors must exist inside the grid's level range.
    """
    grid = cube.grid
    if cube.level - params.r < grid.lo:
        raise ScopeError(
            f"cube at level {cube.level} lacks ancestors {params.r} levels up (range starts at {grid.lo})"
        )
    for gap in range(params.r, cube.level - grid.lo + 1):
        if not good_in(cube, cube.ancestor(gap), params.eps):
            return False
    return True


# ---------------------------------------------------------------------------
# sandwich search


@dataclass(frozen=True)
class BoxCube:
    """Axis-aligned cube with arbitrary (not grid-aligned) position."""

    lo: tuple[float, ...]
    side: float

    def __post_init__(self):
        if self.side <= 0:
            raise DomainError(f"cube side must be positive, got {self.side}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def center(self) -> tuple[float, ...]:
        return tuple(a + 0.5 * self.side for a in self.lo)

    def dilated(self, factor: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
        half = 0.5 * factor * self.side
        c = self.center()
        return tuple(x - half for x in c), tuple(x + half for x in c)


def _contains_float(glo, ghi, blo, bhi) -> bool:
    return all(a <= x and y <= b for a, x, y, b in zip(glo, blo, bhi, ghi))


def sandwich(p: BoxCube, j: int, grids: list[DyadicGrid]) -> tuple[int, Cube]:
    """Find a grid index u and cube I with side(I) <= 18 side(P), 3P inside
    I, and 2^j P inside the j-th ancestor of I.

    Search: the at most three dyadic sides in [3 side, 18 side], each grid
    in index order; candidates at the side in [9 side, 18 side] always
    succeed by the spacing of the union of the three offset families, so a
    full-search miss is a genuine contract violation.
    """
    if j < 0:
        raise DomainError("j must be nonnegative")
    if not grids:
        raise DomainError("need a non-empty grid family")
    s = p.side
    if 2.0 ** -grids[0].lo < 18 * s:
        raise ScopeError(
            f"coarsest grid side {2.0 ** -grids[0].lo} is below 18 side(P) = {18 * s}"
        )
    lev_hi = math.floor(-math.log2(3 * s))
    lev_lo = math.ceil(-math.log2(18 * s))
    c = p.center()
    t_lo, t_hi = p.dilated(3.0)
    e_lo, e_hi = p.dilated(float(2**j))
    for level in range(lev_hi, lev_lo - 1, -1):
        side = 2.0**-level
        if side < 3 * s or side > 18 * s:
            continue
        for u, grid in enumerate(grids):
            cand = grid.cube_at(c, level)
            ilo, ihi = cand.bounds_float()
            if not _contains_float(ilo, ihi, t_lo, t_hi):
                continue
            anc = cand.ancestor(j)
            alo, ahi = anc.bounds_float()
            if _contains_float(alo, ahi, e_lo, e_hi):
                return u, cand
    # float borderline: re-run the search in exact rationals before giving up
    got = _sandwich_exact(p, j, grids, lev_lo, lev_hi)
    if got is not None:
        return got
    raise ContractViolationError(
        f"sandwich search failed for cube at {p.lo} side {p.side}, j={j}"
    )


def _sandwich_exact(p: BoxCube, j: int, grids, lev_lo: int, lev_hi: int):
    s = Fraction(p.side)
    c = tuple(Fraction(a) + s / 2 for a in p.lo)
    t_lo = tuple(x - 3 * s / 2 for x in c)
    t_hi = tuple(x + 3 * s / 2 for x in c)
    scale = Fraction(2**j)
    e_lo = tuple(x - scale * s / 2 for x in c)
    e_hi = tuple(x + scale * s / 2 for x in c)
    for level in range(lev_hi + 1, lev_lo - 2, -1):
        side = _pow2(level)
        if side < 3 * s or side > 18 * s:
            continue
        for u, grid in enumerate(grids):
            cand = grid.cube_at(c, level)
            ilo, ihi = cand.bounds()
            if not all(a <= x and y <= b for a, x, y, b in zip(ilo, t_lo, t_hi, ihi)):
                continue
            anc = cand.ancestor(j)
            alo, ahi = anc.bounds()
            if all(a <= x and y <= b for a, x, y, b in zip(alo, e_lo, e_hi, ahi)):
                return u, cand
    return None


# ---------------------------------------------------------------------------
# bad-cube Monte Carlo


@dataclass(frozen=True)
class BadProbEstimate:
    p_hat: float
    half_width: float
    samples: int


def bad_probability_mc(
    level_gap_r: int,
    eps: float,
    samples: int,
    seed: int,
    depth: int = 16,
) -> BadProbEstimate:
    """Share of random binary-shift grids in which the reference cube is bad.

    The reference is a fixed finest-level cube (index floor(2^depth / 3)),
    which belongs to every sampled grid because finest-level offsets vanish;
    conditioning on membership is therefore vacuous here.  A cube is bad
    when some ancestor at least level_gap_r levels coarser sees it within
    2 side(J)^eps side(K)^(1-eps) of the ancestor skeleton.  All geometry
    is integer cell arithmetic; the 95% half-width is the normal
    approximation.
    """
    if samples < 100:
        raise DomainError(f"need at least 100 samples, got {samples}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"eps must be in (0,1), got {eps}")
    if level_gap_r < 1:
        raise DomainError(f"level gap must be >= 1, got {level_gap_r}")
    if level_gap_r > depth:
        raise ScopeError(f"level gap {level_gap_r} exceeds grid depth {depth}")
    rng = substream(seed, 7001)
    bits = rng.integers(0, 2, size=(samples, depth), dtype=np.int64)
    weights = 1 << (depth - 1 - np.arange(depth, dtype=np.int64))  # bit i+1 -> 2^(depth-i-1)
    j0 = (1 << depth) // 3
    bad = np.zeros(samples, dtype=bool)
    for gap in range(level_gap_r, depth + 1):
        lvl = depth - gap
        width = 1 << gap
        off = bits[:, lvl:] @ weights[lvl:]
        rel = (j0 - off) % width
        d_lo = rel
        d_hi = width - rel - 1
        half = width >> 1
        d_mid = np.where(rel + 1 <= half, half - rel - 1, np.where(rel >= half, rel - half, 0))
        dist = np.minimum(d_lo, np.minimum(d_hi, d_mid))
        threshold = 2.0 ** (1.0 + gap * (1.0 - eps))
        bad |= dist.astype(np.float64) <= threshold
    p_hat = float(bad.mean())
    half_width = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return BadProbEstimate(p_hat, half_width, samples)
