"""Dyadic grids: standard, binary-shifted, and the fixed third-offset family.

A grid is parameterized per axis.  The binary-shifted family moves level l
by the tail sum of finer shift bits, so every offset is a multiple of the
finest side and grids stay nested.  The third-offset family alternates a
+-u/3 fraction of the side between consecutive levels, which also nests but
is never cell-aligned.

Geometry is integer arithmetic: every offset is an integer in units of
1/(3*2^k), k the grid's finest level or the query's level when finer, and
every coordinate enters as its exact integer ratio, so cube location,
ancestors, containment and the deepest common level are floor divisions
and cross-multiplied comparisons of Python ints.  Fractions appear only
in what offset() and Cube.bounds() return.

Also here: the skeleton-goodness kernel, dyadic point distance, the
triple-cube sandwich search, and the Monte Carlo estimate of the bad-cube
probability over random shifts.
"""
from __future__ import annotations

import math
import numbers
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
from .lattice import MAX_DIM, substream

GRID_MAGIC = "GRID1"


def _common(coords) -> tuple[list[int], int]:
    """Float, int or Fraction coordinates as exact numerators over one
    common denominator."""
    pairs = [(int(x), 1) if isinstance(x, numbers.Integral) else x.as_integer_ratio() for x in coords]
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _scale(grid: "DyadicGrid", level: int) -> int:
    """The k whose units 1/(3*2^k) make every offset of the grid at this
    level, and at every coarser one, an integer."""
    return max(grid.hi, level, 0)


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

    def _offset_units(self, axis: int, level: int, k: int) -> int:
        """Offset of level's left endpoints in units of 1/(3*2^k), for any
        k >= _scale(self, level)."""
        if self.kind == "std":
            return 0
        if self.kind == "shift":
            return (3 * self.shifts[axis].offset_cells(level)) << (k - self.hi)
        u = self.third[axis]
        return ((u if level % 2 == 0 else -u) % 3) << (k - level)

    def offset(self, axis: int, level: int) -> Fraction:
        """Exact absolute offset of level's left endpoints on one axis."""
        k = _scale(self, level)
        return Fraction(self._offset_units(axis, level, k), 3 << k)

    def _locate(self, nums, den: int, level: int) -> tuple[int, ...]:
        """Index of the level cube holding the point nums / den."""
        k = _scale(self, level)
        step = (3 << (k - level)) * den
        return tuple(
            (((3 * x) << k) - self._offset_units(a, level, k) * den) // step
            for a, x in enumerate(nums)
        )

    def cube_at(self, point, level: int) -> "Cube":
        """The level cube containing the point (exact index arithmetic)."""
        nums, den = _common(point[a] for a in range(self.dim))
        return Cube(self, level, self._locate(nums, den, level))

    def descriptor(self) -> str:
        kind, beta = self.kind, ""
        if self.kind == "third":
            kind = f"third:{int(''.join(map(str, self.third)), 3)}"
        elif self.kind == "shift":
            beta = "".join(sp.bitstring for sp in self.shifts)
        return f"{GRID_MAGIC} dim={self.dim} kind={kind} levels={self.lo}..{self.hi} beta={beta}"


@dataclass(frozen=True)
class Cube:
    """One grid cube: level plus integer index per axis."""

    grid: DyadicGrid
    level: int
    index: tuple[int, ...]

    @property
    def side(self) -> float:
        return 2.0**-self.level

    def _edges(self, k: int) -> tuple[list[int], int]:
        """Left edges and side in units of 1/(3*2^k), k >= the cube's scale."""
        side = 3 << (k - self.level)
        lo = [i * side + self.grid._offset_units(a, self.level, k) for a, i in enumerate(self.index)]
        return lo, side

    def bounds(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        k = _scale(self.grid, self.level)
        lo, side = self._edges(k)
        unit = 3 << k
        return tuple(Fraction(a, unit) for a in lo), tuple(Fraction(a + side, unit) for a in lo)

    def parent(self) -> "Cube":
        return self.ancestor(1)

    def ancestor(self, j: int) -> "Cube":
        if j < 0:
            raise DomainError("ancestor steps must be nonnegative")
        if j == 0:
            return self
        lvl = self.level - j
        k = _scale(self.grid, self.level)
        lo, _ = self._edges(k)
        step = 3 << (k - lvl)
        idx = tuple((a - self.grid._offset_units(ax, lvl, k)) // step for ax, a in enumerate(lo))
        return Cube(self.grid, lvl, idx)

    def _holds(self, lo_nums, hi_nums, den: int, open_hi: bool) -> bool:
        """Whether the box [lo_nums, hi_nums] / den lies in the cube; with
        open_hi its upper ends must stay strictly below the cube's."""
        k = _scale(self.grid, self.level)
        lo, side = self._edges(k)
        for a, x, y in zip(lo, lo_nums, hi_nums):
            x, y = (3 * x) << k, (3 * y) << k
            top = (a + side) * den
            if x < a * den or y > top or (open_hi and y == top):
                return False
        return True

    def contains_point(self, point) -> bool:
        nums, den = _common(point[a] for a in range(self.grid.dim))
        return self._holds(nums, nums, den, open_hi=True)

    def contains_box(self, box_lo, box_hi) -> bool:
        d = self.grid.dim
        nums, den = _common([*(box_lo[a] for a in range(d)), *(box_hi[a] for a in range(d))])
        return self._holds(nums[:d], nums[d:], den, open_hi=False)


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
    if not 1 <= dim <= MAX_DIM:
        raise DomainError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    return random_grid(sample_shift(seed, lo, hi, axis=k) for k in range(dim))


def onethird_grids(dim: int, lo: int, hi: int) -> list[DyadicGrid]:
    """The fixed 3^dim family; index u runs lexicographically per axis."""
    if not 1 <= dim <= 4:
        raise DomainError(f"dim must be in 1..4, got {dim}")
    return [DyadicGrid(dim, lo, hi, "third", third=combo) for combo in _iproduct((0, 1, 2), repeat=dim)]


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
    if not 1 <= dim <= MAX_DIM:
        raise FormatError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    if hi < lo:
        raise FormatError(f"level range {lo}..{hi} is inverted")
    if kind == "std":
        return standard_grid(dim, lo, hi)
    if kind.startswith("third:"):
        try:
            flat = int(kind.split(":", 1)[1])
        except ValueError:
            raise FormatError(f"bad third index in {kind!r}") from None
        if not 0 <= flat < 3**dim:
            raise FormatError(f"third index {flat} out of range for dim={dim}")
        combo = tuple(int(c) for c in np.base_repr(flat, 3).zfill(dim))
        return DyadicGrid(dim, lo, hi, "third", third=combo)
    if kind == "shift":
        per = hi - lo
        if len(beta) != per * dim or any(c not in "01" for c in beta):
            raise FormatError(f"beta needs {per * dim} bits, got {beta!r}")
        bits = [tuple(int(c) for c in beta[k * per : (k + 1) * per]) for k in range(dim)]
        return random_grid(ShiftParam(lo, hi, b) for b in bits)
    raise FormatError(f"unknown grid kind {kind!r}")


def verify_grid(grid: DyadicGrid, probes: int = 64) -> None:
    """Exhaustively check tiling and nesting over the level range.

    Tiling: probe points across the box land in cubes whose bounds contain
    them (consecutive indices abut by construction, as every left edge is
    index * side + offset).  Nesting: every probed cube's parent contains
    it.  The probes are the rationals ((2t + 1) / (2 probes) + axis / 7)
    mod 1, compared in integer units.
    """
    den = 14 * probes
    for level in range(grid.lo, grid.hi + 1):
        k = _scale(grid, level)
        for t in range(probes):
            nums = [(7 * (2 * t + 1) + 2 * probes * a) % den for a in range(grid.dim)]
            cube = Cube(grid, level, grid._locate(nums, den, level))
            if not cube._holds(nums, nums, den, open_hi=True):
                raise ContractViolationError(f"tiling broken at level {level}: {nums} / {den}")
            if level > grid.lo:
                lo, side = cube._edges(k)
                plo, pside = cube.parent()._edges(k)
                if not all(p <= x and x + side <= p + pside for p, x in zip(plo, lo)):
                    raise ContractViolationError(f"nesting broken at level {level}")


def deepest_common_level(grid: DyadicGrid, x, u) -> int | None:
    """Deepest level in lo..hi whose grid cube holds both points, None if
    even the coarsest level splits them (possible for shifted grids).

    Grids nest, so two points sharing a cube share every coarser one too,
    and a bisection over the levels finds the deepest shared one.
    """
    d = grid.dim
    nums, den = _common([*(x[a] for a in range(d)), *(u[a] for a in range(d))])
    a, b = nums[:d], nums[d:]
    shared, split = grid.lo - 1, grid.hi + 1
    while split - shared > 1:
        level = (shared + split) // 2
        if grid._locate(a, den, level) == grid._locate(b, den, level):
            shared = level
        else:
            split = level
    return shared if shared >= grid.lo else None


def dyadic_distance(x, u, grid: DyadicGrid) -> float:
    """Side of the smallest grid cube containing both points.

    Points sharing a finest cube give the finest side; points split even at
    the coarsest level give the unit box side.
    """
    x = tuple(x) if hasattr(x, "__len__") else (x,)
    u = tuple(u) if hasattr(u, "__len__") else (u,)
    level = deepest_common_level(grid, x, u)
    return 1.0 if level is None else 2.0**-level


# ---------------------------------------------------------------------------
# skeleton goodness


@dataclass(frozen=True)
class GoodnessParams:
    eps: float = 0.25
    r: int = 8

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise DomainError(f"eps must be in (0,1), got {self.eps}")
        if self.r < 1:
            raise DomainError(f"r must be >= 1, got {self.r}")


def _good_rel_mask(rel: np.ndarray, gap_to_p: int, goodness: GoodnessParams) -> np.ndarray:
    """The skeleton-goodness kernel: which same-level cubes clear, on every
    axis, 2 side(J)^eps side(K)^(1-eps) from the ends and midpoint of each
    ancestor K at gaps goodness.r..gap_to_p.

    rel holds (N, dim) per-axis cube indices relative to an ancestor P
    gap_to_p levels up.  Grids nest, so a cube's position within its gap-g
    ancestor is rel mod 2^g and every skeleton distance is an exact integer
    in units of the cube side.  Cubes closer to P than the goodness range
    (gap_to_p < r) have nothing to clear and count as good.
    """
    ok = np.ones(rel.shape[0], dtype=bool)
    for gap in range(goodness.r, gap_to_p + 1):
        width = 1 << gap
        half = width >> 1
        rg = rel & (width - 1)
        dmid = np.where(rg >= half, rg - half, half - rg - 1)
        dist = np.minimum(np.minimum(rg, width - 1 - rg), dmid)
        thr = 2.0 ** (1.0 + gap * (1.0 - goodness.eps))
        ok &= (dist > thr).all(axis=1)
        if not ok.any():
            break
    return ok


def _good_cubes(count: int, gap_to_p: int, goodness: GoodnessParams, dims: int) -> np.ndarray:
    """_good_rel_mask over the count^dims grid of same-level subcubes of P.

    Goodness asks every axis to clear the skeleton, so it is the outer
    AND of one per-axis mask.
    """
    axis = _good_rel_mask(np.arange(count, dtype=np.int64)[:, None], gap_to_p, goodness)
    out = axis
    for _ in range(dims - 1):
        out = np.logical_and.outer(out, axis)
    return out


def _position(cube: Cube, anc: Cube) -> np.ndarray:
    """Per-axis index of cube inside its ancestor anc, as a (1, dim) row."""
    k = _scale(cube.grid, cube.level)
    lo, side = cube._edges(k)
    alo, _ = anc._edges(k)
    return np.array([[(a - b) // side for a, b in zip(lo, alo)]], dtype=np.int64)


def good_in(cube: Cube, anc: Cube, eps: float) -> bool:
    """Per-axis skeleton separation of cube inside its strict ancestor anc."""
    gap = cube.level - anc.level
    if anc.grid != cube.grid or gap < 1 or cube.ancestor(gap) != anc:
        raise DomainError(
            f"cube at level {cube.level} index {cube.index} does not lie in the cube at "
            f"level {anc.level} index {anc.index} of the same grid"
        )
    return bool(_good_rel_mask(_position(cube, anc), gap, GoodnessParams(eps, gap))[0])


def is_good(cube: Cube, params: GoodnessParams) -> bool:
    """Good means good in every ancestor at least params.r levels coarser.

    All those ancestors must exist inside the grid's level range.
    """
    grid = cube.grid
    if cube.level - params.r < grid.lo:
        raise ScopeError(
            f"cube at level {cube.level} lacks ancestors {params.r} levels up (range starts at {grid.lo})"
        )
    top = cube.level - grid.lo
    return bool(_good_rel_mask(_position(cube, cube.ancestor(top)), top, params)[0])


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


def sandwich(p: BoxCube, j: int, grids: list[DyadicGrid]) -> tuple[int, Cube]:
    """Find a grid index u and cube I with side(I) <= 18 side(P), 3P inside
    I, and 2^j P inside the j-th ancestor of I.

    Search: the dyadic sides in [3 side, 18 side], finest first, each grid
    in index order, in exact integer arithmetic; the first pair that works
    is returned.  Candidates at the side in [9 side, 18 side] always
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
    nums, den = _common([*p.lo, s])
    s_num = nums[-1]
    # over the denominator 2 den the center and both dilations are integers
    c = [2 * a + s_num for a in nums[:-1]]
    t_lo, t_hi = [x - 3 * s_num for x in c], [x + 3 * s_num for x in c]
    e_lo, e_hi = [x - (s_num << j) for x in c], [x + (s_num << j) for x in c]
    # the float logarithms only bracket the levels; the exact test decides
    lev_hi = math.floor(-math.log2(3 * s)) + 1
    lev_lo = math.ceil(-math.log2(18 * s)) - 1
    for level in range(lev_hi, lev_lo - 1, -1):
        # 3 s <= 2^-level <= 18 s, as side / s = big / small
        big, small = den << max(-level, 0), s_num << max(level, 0)
        if not 3 * small <= big <= 18 * small:
            continue
        for u, grid in enumerate(grids):
            cand = Cube(grid, level, grid._locate(c, 2 * den, level))
            if cand._holds(t_lo, t_hi, 2 * den, open_hi=False) and cand.ancestor(j)._holds(
                e_lo, e_hi, 2 * den, open_hi=False
            ):
                return u, cand
    raise ContractViolationError(
        f"sandwich search failed for cube at {p.lo} side {p.side}, j={j}"
    )


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
    2 side(J)^eps side(K)^(1-eps) of the ancestor skeleton, which the
    goodness kernel decides from the cube's position inside its level-0
    ancestor.  The 95% half-width is the normal approximation.
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
    # level-0 offset in finest cells is the full tail sum of the bits
    rel = (1 << depth) // 3 - bits @ weights
    bad = ~_good_rel_mask(rel[:, None], depth, GoodnessParams(eps, level_gap_r))
    p_hat = float(bad.mean())
    half_width = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return BadProbEstimate(p_hat, half_width, samples)
