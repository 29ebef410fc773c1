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
in what offset() and Cube.bounds() return.  A NaN or infinite coordinate
or side is a DomainError, as is a grid's dim outside 1..MAX_DIM, a level
range that is not lo <= hi integers (_check_levels), a third offset or a
shift bit that is not an integer in 0..2 or 0..1, or a query cube's level
or index that is not an integer (_check_cube).

The batches `sandwiches` and `deepest_common_levels` run the same searches
over float64 arrays as a filtered exact predicate: each cube index and
containment is decided in float64 only when its margin clears a bound
derived from the float64 error of each operation, and a row with an
undecided step ahead of its answer goes whole to the integer search,
which stays the only exact authority.  Every row equals the scalar call.
3000 sandwiches take about 5 ms in a batch against 70 to 130 ms one at
a time (2-vCPU x86_64 host, numpy 2.4).

Also here: the skeleton-goodness kernel, dyadic point distance, the
triple-cube sandwich search, and the Monte Carlo estimate of the bad-cube
probability over random shifts.
"""
from __future__ import annotations

import functools
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
    ResourceError,
    ScopeError,
    ShapeError,
)
from .lattice import _check_dim, _check_int, substream

GRID_MAGIC = "GRID1"


def _common(coords) -> tuple[list[int], int]:
    """Float, int or Fraction coordinates as exact numerators over one
    common denominator; a NaN or infinite coordinate is a DomainError."""
    try:
        pairs = [(int(x), 1) if isinstance(x, numbers.Integral) else x.as_integer_ratio() for x in coords]
    except (ValueError, OverflowError):
        raise DomainError("coordinates must be finite") from None
    den = math.lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _check_levels(lo, hi) -> tuple[int, int]:
    """A level range: integer levels, negative ones included, lo <= hi."""
    lo, hi = _check_int("lo", lo), _check_int("hi", hi)
    if hi < lo:
        raise DomainError(f"level range {lo}..{hi} is inverted")
    return lo, hi


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
        self.__dict__.update(zip(("lo", "hi"), _check_levels(self.lo, self.hi)))
        if len(self.bits) != self.hi - self.lo:
            raise DomainError(f"need {self.hi - self.lo} bits for levels {self.lo}..{self.hi}, got {len(self.bits)}")
        self.__dict__["bits"] = tuple(_check_int("shift bit", b, 0, 1) for b in self.bits)

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

    dim in 1..MAX_DIM and levels lo <= hi, stored as ints.  kind "std": no
    offsets.  kind "shift": per-axis ShiftParam.  kind "third": per-axis u
    in {0,1,2} with offset ((-1)^l u/3 mod 1) * side.
    """

    dim: int
    lo: int
    hi: int
    kind: str
    shifts: tuple[ShiftParam, ...] | None = None
    third: tuple[int, ...] | None = None

    def __post_init__(self):
        self.__dict__.update(zip(("dim", "lo", "hi"), (_check_dim("dim", self.dim), *_check_levels(self.lo, self.hi))))
        if self.kind == "shift":
            if self.shifts is None or len(self.shifts) != self.dim:
                raise DomainError("shift grid needs one ShiftParam per axis")
            if any((sp.lo, sp.hi) != (self.lo, self.hi) for sp in self.shifts):
                raise DomainError("ShiftParam level range must match the grid")
        elif self.kind == "third":
            if self.third is None or len(self.third) != self.dim:
                raise DomainError("third grid needs one u per axis")
            self.__dict__["third"] = tuple(_check_int("third offset", u, 0, 2) for u in self.third)
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
    lo, hi = _check_levels(lo, hi)
    rng = substream(seed, 303, axis)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=hi - lo))
    return ShiftParam(lo, hi, bits)


def random_grid(shifts) -> DyadicGrid:
    shifts = tuple(shifts)
    if not shifts:
        raise DomainError("need at least one ShiftParam")
    return DyadicGrid(len(shifts), shifts[0].lo, shifts[0].hi, "shift", shifts=shifts)


def sample_grid(seed: int, dim: int, lo: int, hi: int) -> DyadicGrid:
    return random_grid(sample_shift(seed, lo, hi, axis=k) for k in range(_check_dim("dim", dim)))


def onethird_grids(dim: int, lo: int, hi: int) -> list[DyadicGrid]:
    """The fixed 3^dim family; index u runs lexicographically per axis."""
    return [DyadicGrid(dim, lo, hi, "third", third=u) for u in _iproduct((0, 1, 2), repeat=_check_dim("dim", dim))]


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
        dim = _check_dim("dim", int(fields["dim"]))
        lo_s, _, hi_s = fields["levels"].partition("..")
        lo, hi = _check_levels(int(lo_s), int(hi_s))
        kind = fields["kind"]
        beta = fields.get("beta", "")
    except (KeyError, ValueError):
        raise FormatError(f"grid descriptor missing fields: {line!r}") from None
    except DomainError as err:
        raise FormatError(str(err)) from None
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


# verify_grid's work budget, in verify_work's units: about a second on a
# 2-vCPU x86_64 host
VERIFY_BUDGET = 1 << 16


def verify_work(count: int, dim: int, lo: int, hi: int) -> int:
    """The work of verifying count grids of dim axes over levels lo..hi,
    levels * (span + 32) * dim per grid, as each level's probes are
    located with integers that grow with span, the number of levels in
    lo..hi widened to take in level 0; DomainError for a bad count, dim or
    level range, ResourceError past VERIFY_BUDGET."""
    count, dim, (lo, hi) = _check_int("grid count", count, 0), _check_dim("dim", dim), _check_levels(lo, hi)
    levels = hi - lo + 1
    span = max(hi, 0) - min(lo, 0) + 1
    work = count * dim * levels * (span + 32)
    if work > VERIFY_BUDGET:
        raise ResourceError(f"verifying {count} grid(s) of dim {dim} over levels {lo}..{hi} takes {work} work units, limit {VERIFY_BUDGET}")
    return work


def verify_grid(grid: DyadicGrid, probes: int = 64) -> None:
    """Exhaustively check tiling and nesting over the level range.

    Tiling: probe points across the box land in cubes whose bounds contain
    them (consecutive indices abut by construction, as every left edge is
    index * side + offset).  Nesting: every probed cube's parent contains
    it.  The probes are the rationals ((2t + 1) / (2 probes) + axis / 7)
    mod 1, compared in integer units.  A grid past the work budget
    (verify_work) raises ResourceError before any probe.
    """
    verify_work(1, grid.dim, grid.lo, grid.hi)
    probes = _check_int("probes", probes, 1)
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
# float64 filter for the batches
#
# A batch decides each cube index and each containment in float64 when the
# decision's margin clears a bound on the float64 error, and hands the row
# to the exact integer search otherwise (a filtered exact predicate, as in
# Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
# Geometric Predicates", 1997).
#
# The bound, with u = 2^-53, in units of the level's side.  Scaling a
# coordinate by 2^L (ldexp) is exact, and so is every side S = s 2^L the
# sandwich search tests, which lies in [1/32, 1/2).  (An underflow, here
# or below, errs by at most 2^-1075, which the constant term of the bound
# absorbs many times over.)  A point X enters exact; a cube center
# C = X + S/2 is rounded once, |c - C| <= u|C|.  The level's offset phi in
# [0, 1) is rounded once, |phi^ - phi| <= u/2.  Then t = fl(c - phi^)
# errs by at most u|c - phi^| <= u(|c| + 1), so |t - (C - phi)| <=
# 2u|C| + 1.5u + u^2|C|.  The cube index is floor(C - phi).  The fraction
# f = t - floor(t) is exact (t, floor(t) and so f are multiples of
# ulp(t), and f < 1), as is the distance min(f, 1 - f) of t to the nearest
# integer (Sterbenz), and that distance moves by at most |t - (C - phi)|.
# A cube holds the box of center C and half-width h < 1/2 (1.5 S for 3P,
# S/2 for 2^j P one level j up) exactly when the distance of C - phi to the
# nearest integer is at least h.  The margin, distance - h, adds at most
# u/4 for rounding 1.5 S and u/2 for the difference: in all 2u|C| + 2.25u
# + u^2|C|.  tol = 2u(|c| + 2), evaluated in float64, is at least 2u|C| +
# 4u - 4u^2|C| - 4u^2, which exceeds that while |C| < 2^50.  An index is
# decided when the distance exceeds tol, a containment when its margin
# exceeds tol in absolute value, and a decision taken is the exact one.

_U = 2.0**-53
# coordinates of magnitude below 2^50 level sides keep exact integer indices
_EXACT = 2.0**50
# rows per float64 pass of a batch, which bounds its temporaries
_BLOCK = 1024


def _float_at(q: Fraction, up: bool) -> float:
    """The float64 nearest q from above (up) or from below."""
    x = float(q)
    if (Fraction(x) < q) if up else (Fraction(x) > q):
        x = math.nextafter(x, math.inf if up else -math.inf)
    return x


# S <= 1/3 and S >= 1/18 read exactly on float64 S
_THIRD = _float_at(Fraction(1, 3), up=False)
_EIGHTEENTH = _float_at(Fraction(1, 18), up=True)


@functools.lru_cache(maxsize=256)
def _unit_offsets(grid: DyadicGrid, levels) -> np.ndarray:
    """(len(levels), dim): each level's left-endpoint offset in units of its
    side, in [0, 1), correctly rounded; cached by grid and levels, so read-only."""
    offs = [[float(grid.offset(a, int(lv)) * Fraction(2) ** int(lv)) for a in range(grid.dim)] for lv in levels]
    offs = np.array(offs, dtype=np.float64).reshape(len(offs), grid.dim)
    offs.flags.writeable = False
    return offs


def _filter(pos: np.ndarray, off: np.ndarray):
    """Float64 cube index floor(pos - off), the distance of pos - off to
    the nearest integer, and the bound tol on that distance's error."""
    t = pos - off
    idx = np.floor(t)
    f = t - idx
    return idx, np.minimum(f, 1.0 - f), 2.0 * _U * (np.abs(pos) + 2.0)


def _coords(name: str, a, dim: int) -> np.ndarray:
    """An (N, dim) float64 coordinate array, validated."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ShapeError(f"{name} must have shape (N, {dim}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} holds a NaN or infinite coordinate")
    return arr


def deepest_common_levels(grid: DyadicGrid, x, u) -> np.ndarray:
    """deepest_common_level for N point pairs at once.

    x and u hold (N, dim) float64 coordinates.  Returns an int64 array of
    N levels, with grid.lo - 1 where deepest_common_level returns None, so
    range(grid.lo, level + 1) is always the shared levels.  Every level's
    cube indices are decided at once, _BLOCK rows at a time, by the float64
    filter (_filter); a row with an undecided index at any level, or a
    coordinate too large for exact float64 cube indices, goes whole to
    deepest_common_level.
    """
    x, u = _coords("x", x, grid.dim), _coords("u", u, grid.dim)
    if len(x) != len(u):
        raise ShapeError(f"x has {len(x)} points, u has {len(u)}")
    levels = np.arange(grid.lo, grid.hi + 1).reshape(-1, 1, 1)
    off = _unit_offsets(grid, range(grid.lo, grid.hi + 1))[:, None, :]
    exact = ~(
        (np.ldexp(np.abs(x), grid.hi) < _EXACT) & (np.ldexp(np.abs(u), grid.hi) < _EXACT)
    ).all(axis=1)
    top = np.empty(len(x), dtype=np.int64)
    for rows in (slice(a, a + _BLOCK) for a in range(0, len(x), _BLOCK)):
        (ix, dx, tx), (iu, du, tu) = (_filter(np.ldexp(p[rows], levels), off) for p in (x, u))
        exact[rows] |= ((dx <= tx) | (du <= tu)).any(axis=(0, 2))
        same = (ix == iu).all(axis=2)
        top[rows] = np.where(same.any(axis=0), grid.hi - np.argmax(same[::-1], axis=0), grid.lo - 1)
    for r in np.flatnonzero(exact):
        level = deepest_common_level(grid, x[r].tolist(), u[r].tolist())
        top[r] = grid.lo - 1 if level is None else level
    return top


# ---------------------------------------------------------------------------
# skeleton goodness


@dataclass(frozen=True)
class GoodnessParams:
    eps: float = 0.25
    r: int = 8

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise DomainError(f"eps must be in (0,1), got {self.eps}")
        _check_int("r", self.r, 1)


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


def _check_cube(cube: Cube) -> Cube:
    """The cube, its level and index integers, as ints.  Cube itself checks
    nothing, as verify_grid builds thousands of cubes."""
    return Cube(cube.grid, _check_int("cube level", cube.level), tuple(_check_int("cube index", i) for i in cube.index))


def _position(cube: Cube, anc: Cube) -> np.ndarray:
    """Per-axis index of cube inside its ancestor anc, as a (1, dim) row."""
    k = _scale(cube.grid, cube.level)
    lo, side = cube._edges(k)
    alo, _ = anc._edges(k)
    return np.array([[(a - b) // side for a, b in zip(lo, alo)]], dtype=np.int64)


def good_in(cube: Cube, anc: Cube, eps: float) -> bool:
    """Per-axis skeleton separation of cube inside its strict ancestor anc."""
    cube, anc = _check_cube(cube), _check_cube(anc)
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
    cube = _check_cube(cube)
    grid = cube.grid
    if cube.level - params.r < grid.lo:
        raise ScopeError(f"cube at level {cube.level} lacks ancestors {params.r} levels up (range starts at {grid.lo})")
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
        # comparisons with NaN are false
        if not 0 < self.side < math.inf:
            raise DomainError(f"cube side must be positive and finite, got {self.side}")
        if not all(-math.inf < a < math.inf for a in self.lo):
            raise DomainError(f"cube corner {self.lo} is not finite")

    @property
    def dim(self) -> int:
        return len(self.lo)


def _sandwich_args(j, grids) -> tuple[int, int]:
    """j as an int and the grid family's one dim; j >= 0, family non-empty."""
    j = _check_int("j", j, 0)
    if not grids:
        raise DomainError("need a non-empty grid family")
    dims = sorted({g.dim for g in grids})
    if len(dims) > 1:
        raise ShapeError(f"the grids have {dims} axes")
    return j, dims[0]


def sandwich(p: BoxCube, j: int, grids: list[DyadicGrid]) -> tuple[int, Cube]:
    """Find a grid index u and cube I with side(I) <= 18 side(P), 3P inside
    I, and 2^j P inside the j-th ancestor of I.

    Search: the dyadic sides in [3 side, 18 side], finest first, each grid
    in index order, in exact integer arithmetic; the first pair that works
    is returned.  Candidates at the side in [9 side, 18 side] always
    succeed by the spacing of the union of the three offset families, so a
    full-search miss is a genuine contract violation.
    """
    j, dim = _sandwich_args(j, grids)
    if p.dim != dim:
        raise ShapeError(f"cube has {p.dim} axes, the grids have {dim}")
    s = p.side
    if 2.0 ** -grids[0].lo < 18 * s:
        raise ScopeError(f"coarsest grid side {2.0 ** -grids[0].lo} is below 18 side(P) = {18 * s}")
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
    raise ContractViolationError(f"sandwich search failed for cube at {p.lo} side {p.side}, j={j}")


def _sandwich_block(lo, side, j, known, offs, exact, out_u, out_level, out_index) -> None:
    """The float64 sandwich search over one block of rows, written into the
    output views; a row it cannot decide is flagged in exact instead.
    offs[u] holds grid u's unit offsets at the levels in known."""
    todo = ~exact
    for level in (-np.frexp(side)[1][:, None] - np.arange(1, 5)).T:
        # the cube holding the center at `level`, and the one j levels up,
        # must keep 3P and 2^j P, of half-widths 1.5 S and S/2 in the
        # respective side units, inside
        big, coarse = np.ldexp(side, level), level - j
        bracket = (big <= _THIRD) & (big >= _EIGHTEENTH)
        center = np.ldexp(lo, level[:, None]) + 0.5 * big[:, None]
        up = np.ldexp(lo, coarse[:, None]) + 0.5 * np.ldexp(side, coarse)[:, None]
        at, at_up = np.searchsorted(known, level), np.searchsorted(known, coarse)
        h3, h1 = 1.5 * big[:, None], 0.5 * big[:, None]
        for u, off in enumerate(offs):
            idx, dist, tol = _filter(center, off[at])
            _, dist_up, tol_up = _filter(up, off[at_up])
            m3, m1 = dist - h3, dist_up - h1
            hit = bracket & ((m3 > tol) & (m1 > tol_up)).all(axis=1)
            miss = ~bracket | ((m3 < -tol) | (m1 < -tol_up)).any(axis=1)
            take = todo & hit
            out_u[take], out_level[take], out_index[take] = u, level[take], idx[take]
            exact |= todo & ~(hit | miss)
            todo &= miss
    exact |= todo


def sandwiches(lo, side, j: int, grids: list[DyadicGrid]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sandwich for N cubes at once.

    lo holds the (N, d) lower corners and side the N sides, as float64.
    Returns int64 arrays: the grid index u (N,), the level (N,) and the
    per-axis cube index (N, d).  Row r is sandwich(BoxCube(lo[r], side[r]),
    j, grids), errors included, and the search order is the same: finest
    level first, grids in index order, first hit wins.  With side = m 2^e,
    m in [1/2, 1), the side bracket 3 side <= 2^-L <= 18 side can only hold
    at L = -e-1 .. -e-4, where it is read exactly.  Cube indices and both
    containments are decided by the float64 filter; a row with an undecided
    candidate ahead of its first hit, or no hit at all, goes whole to
    sandwich, as does a corner of magnitude 2^50 sides or more.
    """
    j, dim = _sandwich_args(j, grids)
    lo = _coords("lo", lo, dim)
    side = np.asarray(side, dtype=np.float64)
    if side.shape != (len(lo),):
        raise ShapeError(f"side must have shape ({len(lo)},), got {side.shape}")
    if not (np.isfinite(side) & (side > 0)).all():
        raise DomainError("cube sides must be positive and finite")
    coarsest = 2.0 ** -grids[0].lo
    wide = np.flatnonzero(coarsest < 18 * side)
    if wide.size:
        s = float(side[wide[0]])
        raise ScopeError(f"coarsest grid side {coarsest} is below 18 side(P) = {18 * s}")
    n = len(side)
    # side = m 2^e: the candidate levels are -e-1 .. -e-4, and j levels up
    exps = set(np.frexp(side)[1].tolist())
    known = np.array(sorted({-e - k - up for e in exps for k in range(1, 5) for up in (0, j)}), dtype=np.int64)
    offs = [_unit_offsets(g, tuple(known.tolist())) for g in grids]
    out_u = np.zeros(n, dtype=np.int64)
    out_level = np.zeros(n, dtype=np.int64)
    out_index = np.zeros((n, dim), dtype=np.int64)
    exact = ~(np.abs(lo) < _EXACT * side[:, None]).all(axis=1)
    for a in range(0, n, _BLOCK):
        rows = slice(a, a + _BLOCK)
        _sandwich_block(
            lo[rows], side[rows], j, known, offs, exact[rows], out_u[rows], out_level[rows], out_index[rows]
        )
    for r in np.flatnonzero(exact):
        u, cube = sandwich(BoxCube(tuple(lo[r].tolist()), float(side[r])), j, grids)
        try:
            out_index[r] = cube.index
        except OverflowError:
            raise ScopeError(f"cube index {cube.index} does not fit int64; use sandwich") from None
        out_u[r], out_level[r] = u, cube.level
    return out_u, out_level, out_index


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
    _check_int("samples", samples, 100)
    goodness = GoodnessParams(eps, level_gap_r)
    # the reference cube's offsets are int64 sums of 2^(depth - 1) down
    if _check_int("depth", depth, 0) > 62:
        raise DomainError(f"depth must be at most 62, got {depth!r}")
    if level_gap_r > depth:
        raise ScopeError(f"level gap {level_gap_r} exceeds grid depth {depth}")
    rng = substream(seed, 7001)
    bits = rng.integers(0, 2, size=(samples, depth), dtype=np.int64)
    weights = 1 << (depth - 1 - np.arange(depth, dtype=np.int64))  # bit i+1 -> 2^(depth-i-1)
    # level-0 offset in finest cells is the full tail sum of the bits
    rel = (1 << depth) // 3 - bits @ weights
    bad = ~_good_rel_mask(rel[:, None], depth, goodness)
    p_hat = float(bad.mean())
    half_width = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return BadProbEstimate(p_hat, half_width, samples)
