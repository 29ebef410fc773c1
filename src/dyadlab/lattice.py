"""Finite dyadic lattices with exact weighted rectangle calculus.

Everything in the package lives on the half-open unit box [0,1)^d sliced
into 2^(d*L) congruent cells.  Weights and grid functions are piecewise
constant on cells, so every integral downstream is a finite sum of cell
values, read by one of five engines.  The dyadic pyramid,
_level_masses, reads every box of the standard dyadic grid (the dyadic
family's characteristic scans, the indicator floor, embeddings, the
rectangle proof chain's slice profiles and slice averages, stopping
cubes and Carleson sums): compensated float64 pairwise sums of
density**theta * cell_volume, fine to coarse, the first factor's axes
before the rest's, each mass within an ulp of its exact sum.  One walker,
_stream, halves every level from the one below: a one-factor pyramid is
one stream over all the axes; a product pyramid lays the first factor's
levels side by side on one row axis, in three stacks (the finest level,
the next, every coarser one), and streams the second factor once per
stack, finest level first, each level dropped once read; every sum is
the one a level alone would take.  A box's mass is the tree sum
of its own cells, which one own-cells reader, _own_mass, repeats for any
single box (integrate, power_integrate, box_mass, total_mass, bump_cube
and bump_rect, characteristic_at's factor cubes, slice_profile's J, a
shrink witness one axis at a time): the box's whole-cell cover, each
cell of an axis with fractional edges scaled by its overlap, zero-padded
to 2^k cells per axis and summed by _tree_mass; a box holding no
positive cell is exactly 0.  The refined pyramid, _ThirdPyramid,
reads every cube product of the one-third grids, the standard pair's
included (their scans, for sigma and omega stacked on a batch axis in one
walk, and witnesses, _third_mass) the same way over a lattice whose axes
are cut, one at a time, into thirds of a cell, on which every one-third
cube is whole; each mass is its exact sum correctly rounded but within
about 2^-90 of a rounding boundary, and on every standard box tested it
has the dyadic pyramid's bits.  Every engine but the prefix one halves
through one step, _halve.  The product-reverse doubling scan reads the
dyadic pyramid summed one axis at a time, each level also giving the
odd-offset pair sums that are the concentric shrinks of the coarser
edges.  The prefix engine, box_masses,
feeds only the cube, rectangle and strong doubling scans and their
witnesses: the corner differences of a table of (hi, lo) float64 pairs,
compensated running sums (_running_sum) one axis at a time, gathered at
whole-cell edge arrays that broadcast together.  Every other total over
a row is the last entry of the same running sum, so the package has one
arithmetic, compensated float64, and no number depends on the platform's
long double.  Every power (density**theta, f**p, the bump, Carleson and
embedding terms) runs in float64; at theta = 1 and p = 1 it keeps the bits.

Besides the integration core this module owns the weight generators, the
doubling / reverse-doubling / strong-reverse-doubling scans with their
witnesses, and the explicit doubling bound implied by a strong
reverse-doubling constant.  The cube, rectangle and strong scans bound
every ratio from the table's hi half and read only the boxes that can
win through the pair engine, a batch of whole scans at a time as one
array in scan order, whose first greatest ratio is the winner; the
product-reverse scan reads every tile and shrink from its pyramid.  It
also holds the input rules, each written once: _check_int for every
integer (an Integral, numpy's included, not a bool), _check_dim for a
dimension (1..MAX_DIM) and _cells for a cell array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as _iproduct
from numbers import Integral

import numpy as np

from .errors import (
    AlignmentError,
    DomainError,
    ResourceError,
    ShapeError,
)

CELL_BUDGET_LOG2 = 24
# the bytes any one temporary array of a dense operator may take
ARRAY_BUDGET_BYTES = 1 << 30
# the rounds a norm estimate may run, its trace a row per start and
# half-step: 2^10 take about 0.6 s at 2D depth 3 and 2.4 s at 2D depth 6
# on a 2-vCPU x86_64 host
NORM_BUDGET_ITERATIONS = 1 << 10
# the size tuples a rectangle or strong doubling scan may visit, each one
# a Python-level step
SCAN_BUDGET_TUPLES = 1 << 20
MAX_DIM = 4
INFINITE = math.inf
MAX_BOUND_EXPONENT = 1 << 20

@dataclass(frozen=True)
class Lattice:
    """Unit box [0,1)^dim cut into 2^depth cells per axis."""

    dim: int
    depth: int

    @property
    def cells_per_axis(self) -> int:
        return 1 << self.depth

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    @property
    def cell_count(self) -> int:
        return 1 << (self.dim * self.depth)

    @property
    def cell_side(self) -> float:
        return 2.0 ** -self.depth

    @property
    def cell_volume(self) -> float:
        return 2.0 ** -(self.dim * self.depth)

    def cell_centers(self) -> np.ndarray:
        """Centers along one axis (all axes are congruent)."""
        n = self.cells_per_axis
        return (np.arange(n) + 0.5) * self.cell_side


def make_lattice(dim: int, depth: int) -> Lattice:
    dim, depth = _check_dim("dim", dim), _check_int("depth", depth, 0)
    if dim * depth > CELL_BUDGET_LOG2:
        raise ResourceError(f"cell budget exceeded: 2^{dim * depth} cells, limit 2^{CELL_BUDGET_LOG2}")
    return Lattice(dim, depth)


@dataclass(frozen=True)
class Rect:
    """Cell-aligned half-open rectangle, bounds in cell units per axis."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ShapeError("lo and hi must have the same length")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise DomainError(f"inverted rectangle bounds {self.lo}..{self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def cells(self) -> int:
        out = 1
        for a, b in zip(self.lo, self.hi):
            out *= b - a
        return out


def full_rect(lat: Lattice) -> Rect:
    return Rect((0,) * lat.dim, (lat.cells_per_axis,) * lat.dim)


def rect_volume(lat: Lattice, rect: Rect) -> float:
    return rect.cells * lat.cell_volume


def rect_from_bounds(lat: Lattice, lo, hi) -> Rect:
    """Exactly cell-aligned box coordinates -> Rect, else alignment error."""
    n = lat.cells_per_axis
    ilo, ihi = [], []
    for a, b in zip(lo, hi):
        fa, fb = a * n, b * n
        ra, rb = round(fa), round(fb)
        if abs(fa - ra) > 1e-12 * n or abs(fb - rb) > 1e-12 * n:
            raise AlignmentError(f"bounds ({a}, {b}) are not aligned to 2^-{lat.depth} cells")
        if ra < 0 or rb > n:
            raise DomainError(f"bounds ({a}, {b}) leave the unit box")
        ilo.append(int(ra))
        ihi.append(int(rb))
    return Rect(tuple(ilo), tuple(ihi))


def _check_rect(lat: Lattice, rect: Rect) -> None:
    if rect.dim != lat.dim:
        raise ShapeError(f"rectangle dim {rect.dim} != lattice dim {lat.dim}")
    n = lat.cells_per_axis
    for a, b in zip(rect.lo, rect.hi):
        if a < 0 or b > n:
            raise DomainError(f"rectangle {rect.lo}..{rect.hi} leaves the box (n={n})")


class Weight:
    """Nonnegative piecewise-constant density with cached mass prefix tables.

    prefix(theta) holds cumulative sums of density**theta * cell_volume
    as compensated (hi, lo) float64 pairs (_accumulate); only the cube,
    rectangle and strong doubling scans read them, at theta = 1, the
    screen its hi half, so the theta = 1 table is kept and any other is
    built on each call.  A weight with a
    zero-density cell also keeps a prefix count of its positive cells, so
    that every box those scans read holding none of them has mass 0.
    Every single box (total_mass among them) is summed from its own cells
    instead (_own_mass).  Tables are built on demand; the object is
    otherwise immutable.
    """

    __slots__ = ("lattice", "density", "_prefix", "_count")

    def __init__(self, lattice: Lattice, density) -> None:
        self.lattice = lattice
        self.density = _cells(lattice, density, "density")
        self._prefix: np.ndarray | None = None
        self._count: np.ndarray | bool | None = False

    def prefix(self, theta: float = 1.0) -> np.ndarray:
        theta = _check_theta(theta)
        if theta != 1.0:
            return _accumulate(self.lattice, _cellwise(self.lattice, self.density, theta))
        if self._prefix is None:
            self._prefix = _accumulate(self.lattice, _cellwise(self.lattice, self.density))
        return self._prefix

    def total_mass(self) -> float:
        return float(_own_mass(self.lattice, self.density, (0,) * self.lattice.dim, self.lattice.shape))


def _check_int(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """value as an int, DomainError unless it is an integer (numpy's
    included, a bool not) in least..most, either end open when None: the
    package's one integer rule."""
    if isinstance(value, bool) or not isinstance(value, Integral) or (
        least is not None and value < least or most is not None and value > most
    ):
        span = "" if least is None else f" >= {least}" if most is None else f" in [{least}, {most}]"
        raise DomainError(f"{name} must be an integer{span}, got {value!r}")
    return int(value)


def _check_dim(name: str, value) -> int:
    """A dimension: an integer in 1..MAX_DIM."""
    return _check_int(name, value, 1, MAX_DIM)


def _first_factor(lat: Lattice, m) -> int:
    """The first factor's dim m, ShapeError unless it leaves a second."""
    m = _check_dim("m", m)
    if m >= lat.dim:
        raise ShapeError(f"first factor must span 1..{lat.dim - 1} axes, got {m}")
    return m


def _cells(lattice: Lattice, values, name: str) -> np.ndarray:
    """values as a read-only C-order float64 copy of the lattice's shape
    (one of cell_count values is reshaped, any other size a ShapeError),
    DomainError unless each is a finite nonnegative real number."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":
            raise TypeError
        arr = arr.astype(np.float64, order="C")
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be real numbers") from None
    if arr.shape != lattice.shape:
        if arr.size != lattice.cell_count:
            raise ShapeError(f"{name} shape {arr.shape} incompatible with lattice shape {lattice.shape}")
        arr = arr.reshape(lattice.shape)
    ok = np.isfinite(arr) & (arr >= 0)
    if not ok.all():
        raise DomainError(f"{name} must be finite and nonnegative, cell {tuple(np.argwhere(~ok)[0].tolist())} is not")
    arr.flags.writeable = False
    return arr


def _check_theta(theta) -> float:
    """theta as a float, DomainError unless it is finite and >= 1."""
    theta = float(theta)
    if not 1.0 <= theta < math.inf:
        raise DomainError(f"theta must be finite and >= 1, got {theta}")
    return theta


class GridFunction:
    """Nonnegative piecewise-constant function on the lattice cells."""

    __slots__ = ("lattice", "values")

    def __init__(self, lattice: Lattice, values) -> None:
        self.lattice = lattice
        self.values = _cells(lattice, values, "values")


def _running_sum(x: np.ndarray, axis: int, err=None, out=None) -> tuple:
    """(s, e): s the np.cumsum of x (overwritten) along axis, written to
    out if given, and e the running sum of err, x's own errors (updated in
    place; None for none), plus each step's TwoSum error, recovered from s
    and x (Sum2 of Ogita, Rump and Oishi, SIAM J. Sci. Comput. 2005).  s +
    e is the running sum of x + err to within about k^2 u^2 times its
    largest partial sum, k the steps; a row's sums depend on it alone."""
    s = np.cumsum(x, axis=axis, out=out)
    lead = (slice(None),) * (axis % x.ndim)
    now, before = lead + (slice(1, None),), lead + (slice(None, -1),)
    e = np.zeros(s.shape) if err is None else err
    # with no errors coming in, e's own entries hold each step's error
    z = np.subtract(s[now], s[before], out=e[now] if err is None else None)
    step = x[now]
    step -= z
    np.subtract(s[now], z, out=z)
    np.subtract(s[before], z, out=z)
    z += step
    if err is not None:
        e[now] += z
    np.cumsum(e, axis=axis, out=e)
    return s, e


def _total(x: np.ndarray) -> np.ndarray:
    """The compensated sum of x over its last axis, rounded once: the last
    entry of its _running_sum (its largest sum where that is not finite);
    an empty row sums to 0.  x is overwritten."""
    s, e = (a[..., -1:].sum(axis=-1) for a in _running_sum(x, -1))
    return np.where(np.isfinite(s), s + e, s)


def _accumulate(lat: Lattice, h: np.ndarray) -> np.ndarray:
    """Prefix table of the cellwise values h (overwritten) over the trailing
    lat axes, one read-only array batch + (2,) + (n + 1,)^d: hi, the table
    rounded to float64, then lo, its remainder.  The running sums go one
    axis at a time, each carrying the errors of the one before, and are
    renormalized once, so hi + lo is the exact prefix sum to within about
    d^2 n^3 u^2 times the top entry."""
    lead = h.ndim - lat.dim
    s, e, spare = h, None, None
    for ax in range(lead, h.ndim):
        s, e, spare = *_running_sum(s, ax, e, spare), s
    tab = np.zeros(h.shape[:lead] + (2,) + (lat.cells_per_axis + 1,) * lat.dim)
    hi, lo = (tab[(..., k) + (slice(1, None),) * lat.dim] for k in (0, 1))
    np.add(s, e, out=hi)
    np.subtract(hi, s, out=lo)
    np.subtract(e, lo, out=lo)
    tab.flags.writeable = False
    return tab


def _positive_counts(lat: Lattice, density: np.ndarray) -> np.ndarray | None:
    """Pair prefix table of density's positive cells, exact counts, or None."""
    pos = density > 0.0
    return None if pos.all() else _accumulate(lat, pos.astype(np.float64))


# (corner, sign) terms of the mixed difference, per dimension, in one fixed order
_CORNERS = {
    d: [(c, -1.0 if (d - sum(c)) % 2 else 1.0) for c in _iproduct((0, 1), repeat=d)]
    for d in range(1, MAX_DIM + 1)
}


def box_masses(tab: np.ndarray, lo, hi) -> np.ndarray:
    """Masses of every box spanned by per-axis whole-cell edges in [0, n].

    tab is a pair prefix table (_accumulate), batch + (2,) + (n + 1,)^d;
    lo[k] and hi[k] hold the integer edges of its k-th table axis, and the
    batch leads the result.  All 2d arrays broadcast together: vectors
    laid out by np.ix_ give the outer-product grid of a level pair,
    equal-length vectors a list of boxes.  Every corner of every box is
    gathered, and the corners' (hi, lo) pairs are added in one fixed order
    by _add, every rounding error carried, and rounded once; a box's mass
    depends only on its own edges and table, never on the batch or the
    layout it was read in.
    """
    one = all(np.ndim(e) == 0 for e in (*lo, *hi))  # then read as a list of one
    lo, hi = ([np.atleast_1d(e) for e in edges] for edges in (lo, hi))
    out = err = None
    for corners, sign in _CORNERS[len(lo)]:
        at = tuple(b if c else a for a, b, c in zip(lo, hi, corners))
        x, y = (sign * tab[(..., k, *at)] for k in (0, 1))
        out, err = (x, y) if out is None else _add(out, x, err, y)
    out = out + err
    return out[..., 0] if one else out


def _masses(tab: np.ndarray, count: np.ndarray | None, lo, hi) -> np.ndarray:
    """box_masses of tab, exactly 0 on boxes that hold no positive cell by
    their _positive_counts table, where the corner sum of nonzero prefix
    values need not cancel.  Every other box keeps the engine's bits."""
    masses = box_masses(tab, lo, hi)
    if count is not None:
        masses = np.where(box_masses(count, lo, hi) == 0, 0.0, masses)
    return masses


def _weight_masses(w: Weight, lo, hi) -> np.ndarray:
    """_masses through w's theta = 1 table and its positive-cell count,
    which is built on first use."""
    if w._count is False:
        w._count = _positive_counts(w.lattice, w.density)
    return _masses(w.prefix(1.0), w._count, lo, hi)


def _cellwise(lat: Lattice, u: np.ndarray, theta: float = 1.0, out=None) -> np.ndarray:
    """u**theta * cell_volume, a pyramid's finest level, written to out if
    given; a cell that overflows raises DomainError.  Every reader powers
    the whole density, so a cell has the same bits in every box.  theta =
    1 skips the power and its overflow pass: pow(x, 1) = x, and the cells
    are finite (_cells)."""
    if theta == 1.0:
        return np.multiply(u, lat.cell_volume, out=out)
    with np.errstate(over="ignore"):
        out = np.power(u, float(theta), out=out)
    if not np.isfinite(out).all():
        raise DomainError(f"density**theta overflows float64 at theta={theta!r}")
    out *= lat.cell_volume
    return out


def _add(x, y, ex, ey, out=(None, None)) -> tuple:
    """x + y and its rounding error, exact by TwoSum (Knuth), plus the
    summands' errors ex and ey (the float 0.0 while there are none),
    written to the arrays out if given: (x - (a - z)) + (y - z) + (ex + ey)
    for a = x + y, z = a - x, with few temporaries."""
    a = np.add(x, y, out=out[0])
    z = a - x
    err = np.subtract(a, z, out=out[1])
    np.subtract(x, err, out=err)
    np.subtract(y, z, out=z)
    err += z
    if isinstance(ex, np.ndarray):
        err += np.add(ex, ey, out=z)
    return a, err


def _halve(a: np.ndarray, axes, err=None, out=(None, None)) -> tuple:
    """Pairwise sums of neighbouring cells along each of the axes in turn,
    and unless err is None the sums' errors, err being a's own (the float
    0.0 while there are none): each sum's rounding error is exact by
    TwoSum and added to the summands' errors, so sums + errors is the
    block sum to within about an ulp (Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 2005).  The last axis's sums and errors go to the arrays out
    if given."""
    last = axes[-1] if len(axes) else None
    for ax in axes:
        lead = (slice(None),) * ax
        first, second = lead + (slice(0, None, 2),), lead + (slice(1, None, 2),)
        dst = out if ax == last else (None, None)
        if err is None:
            a = np.add(a[first], a[second], out=dst[0])
            continue
        ex = ey = err
        if isinstance(err, np.ndarray):
            ex, ey = err[first], err[second]
        a, err = _add(a[first], a[second], ex, ey, dst)
    return a, err


def _factor_axes(h: np.ndarray, lat: Lattice, m: int | None) -> list[range]:
    """The axes of h summed together per factor: every lattice axis (m
    None), else the first m and the rest; leading axes are a batch."""
    lead = h.ndim - lat.dim
    cuts = [lead, h.ndim] if m is None else [lead, lead + m, h.ndim]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


# A product pyramid's first-factor levels are summed one stack at a time.
# Level li's sums, batch + (2^li,)^m + (2^L,)^(d-m), flatten their
# first-factor axes into one row axis, and the levels of a stack lie on it
# one after the other, li ascending; the second factor is then halved once
# per stack for all its levels, row by row, with the same elementwise sums
# as one level alone.  The stacks are the finest level, the next, and every
# coarser one (_chunks), summed in that order, each second-factor level
# finest first and dropped once read, so that the finest level's pyramid
# never shares memory with the others'.


def _chunks(depth: int) -> list[range]:
    """The first-factor levels of each stack, in the order they are summed."""
    return [lv for lv in (range(depth, depth + 1), range(max(depth - 1, 0), depth), range(depth - 1)) if len(lv)]


def _segments(stack: np.ndarray, levels: range, m: int, lead: int) -> list[np.ndarray]:
    """Each level's rows of a stack, as views shaped batch + (2^li,)^m +
    the stack's trailing axes."""
    out, at = [], 0
    for li in levels:
        rows = 1 << (li * m)
        seg = stack[(slice(None),) * lead + (slice(at, at + rows),)]
        out.append(seg.reshape(stack.shape[:lead] + (1 << li,) * m + stack.shape[lead + 1 :]))
        at += rows
    return out


def _stream(a: np.ndarray, err, axes: range, depth: int):
    """(level, masses) of a stack over the axes, level depth (a itself)
    down to 0, fine to coarse: each level is _halve of the one below, and
    its sums take its errors in place once the next level is summed from
    them, so a itself is never written.  It walks the second factor of a
    product pyramid's stacks and every axis of a one-factor pyramid."""
    for level in range(depth, -1, -1):
        nxt = _halve(a, axes, err) if level else None
        if isinstance(err, np.ndarray):
            a += err
        err = None
        yield level, a
        if nxt is not None:
            a, err = nxt


def _coarse_stack(below: tuple, axes: range, levels: range, m: int, lead: int) -> tuple:
    """The stack of levels (sums, and errors unless below's are None) of
    the first factor, each halved over the axes from the next finer one,
    below being the level just finer than all of them, straight into its
    rows."""
    shape = below[0].shape[:lead] + (sum(1 << (li * m) for li in levels),) + below[0].shape[lead + m :]
    stack = tuple(None if x is None else np.empty(shape) for x in (below[0], below[1]))
    views = [[None] * len(levels) if x is None else _segments(x, levels, m, lead) for x in stack]
    for out in reversed(list(zip(*views))):
        below = _halve(below[0], axes, below[1], out)
    return stack


def _level_stacks(h: np.ndarray, lat: Lattice, m: int, compensated: bool = True):
    """(levels, stream) per stack of first-factor levels (_chunks), stream
    yielding (lj, masses) finest first, masses shaped batch + (rows,) +
    (2^lj,)^(d-m): the masses of the cellwise nonnegative h over the
    products of a level-li cube of the first m lattice axes and a level-lj
    cube of the rest, li's rows laid out by _segments.  Each stream is to
    be read in full before the next stack is asked for; nothing is held
    here once it is handed on."""
    lead, depth = h.ndim - lat.dim, lat.depth
    i_axes, j_axes = range(lead, lead + m), range(lead + 1, h.ndim - m + 1)

    def rows(a):
        return a.reshape(a.shape[:lead] + (-1,) + a.shape[lead + m :]) if isinstance(a, np.ndarray) else a

    err = 0.0 if compensated else None
    yield range(depth, depth + 1), _stream(rows(h), err, j_axes, depth)
    if not depth:
        return
    below = _halve(h, i_axes, err)
    del h  # from here on only the caller holds the finest level
    stacks = [(range(depth - 1, depth), *map(rows, below))]
    if depth > 1:
        stacks.append((range(depth - 1), *_coarse_stack(below, i_axes, range(depth - 1), m, lead)))
    del below
    while stacks:
        yield stacks[0][0], _stream(*stacks.pop(0)[1:], j_axes, depth)


def _level_masses(h: np.ndarray, lat: Lattice, m: int | None = None, compensated: bool = True):
    """(levels, masses) per level tuple: the masses of the cellwise
    nonnegative h over the dyadic cubes of one level (m None), or over the
    products of a level-li cube of the first m lattice axes and a level-lj
    cube of the rest, shaped batch + the cubes per axis.  One factor is
    one _stream, summed when called and handed out level 0 to depth; two
    run stack by stack (_level_stacks), so a reader that needs product
    order keys on the level tuple.  Compensated, each
    mass is within an ulp of its exact sum; plain sums (compensated
    False), rounded at every level, are the bilinear forms' and the norm
    operator's, whose bits the norm estimates keep."""
    if m is None:
        pyramid = list(_stream(h, 0.0 if compensated else None, _factor_axes(h, lat, m)[0], lat.depth))
        return (((level,), masses) for level, masses in reversed(pyramid))
    return _product_levels(_level_stacks(h, lat, m, compensated), m, h.ndim - lat.dim)


def _product_levels(stacks, m: int, lead: int):
    """((li, lj), masses) of each level of each _level_stacks stack."""
    for levels, stream in stacks:
        for lj, stack in stream:
            for li, masses in zip(levels, _segments(stack, levels, m, lead)):
                yield (li, lj), masses


def _tree_mass(a: np.ndarray, groups, err=0.0) -> np.ndarray:
    """The mass of a block a of cellwise values summed from its own cells by
    _halve, each group of axes halved together, group by group, until it
    is one cell wide: the entry a pyramid summing the groups in that order
    gives the block, bit for bit.  err is the block's own errors (an array
    or 0.0), or None for plain sums.  The other axes are a batch; the
    summed ones stay, one cell wide.  A summed axis not 2^k cells wide
    raises ShapeError."""
    for ax in (ax for axes in groups for ax in axes):
        if a.shape[ax] < 1 or a.shape[ax] & (a.shape[ax] - 1):
            raise ShapeError(f"a tree sums 2^k cells per axis, axis {ax} has {a.shape[ax]}")
    for axes in groups:
        while live := [ax for ax in axes if a.shape[ax] > 1]:
            a, err = _halve(a, live, err)
    return a + err if isinstance(err, np.ndarray) else a


def _own_mass(lat: Lattice, u: np.ndarray, lo, hi, theta: float = 1.0, groups=None) -> np.ndarray:
    """The mass of u**theta * cell_volume over one box of u's trailing
    lat.dim axes, summed from the box's own cells; leading axes are a
    batch, which leads the result.  lo and hi are the box's edges in cell
    units, 0 <= lo <= hi <= n.  The box's whole-cell cover is powered
    (_cellwise); on an axis whose edges are not whole cells each cell is
    scaled by its overlap min(hi, i + 1) - max(lo, i), 1 inside, its exact
    error (_two_product) starting the tree's.  The box is then zero-padded
    to 2^k cells per axis and summed by _tree_mass, the groups of box axes
    (all of them by default) one after the other, so a dyadic cube or
    rectangle gets its pyramid mass bit for bit."""
    lead = u.ndim - lat.dim
    cover, overlaps = [], []
    for k, (a, b) in enumerate(zip(lo, hi)):
        i, j = math.floor(a), math.ceil(b)
        cover.append(slice(i, j))
        if i != a or j != b:
            at = np.arange(i, j, dtype=np.float64)
            overlaps.append((k, np.minimum(b, at + 1) - np.maximum(a, at)))
    block, err = _cellwise(lat, u[(..., *cover)], theta), 0.0
    for k, frac in overlaps:
        frac = frac.reshape((-1,) + (1,) * (lat.dim - 1 - k))
        block, lost = _two_product(block, frac)
        err = lost + err * frac
    pad = [(0, 0)] * lead + [(0, (1 << (max(m, 1) - 1).bit_length()) - m) for m in block.shape[lead:]]
    if any(after for _, after in pad):
        block, err = (np.pad(x, pad) if isinstance(x, np.ndarray) else x for x in (block, err))
    groups = [range(lat.dim)] if groups is None else groups
    return _tree_mass(block, [[lead + ax for ax in axes] for axes in groups], err).reshape(u.shape[:lead])


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple:
    """a * b and its rounding error, exact by Dekker's TwoProduct unless a
    product underflows; 0 where Veltkamp's split overflows (past 2^996)."""
    p = a * b

    def split(x):
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi

    with np.errstate(over="ignore", invalid="ignore"):
        (ah, al), (bh, bl) = split(a), split(b)
        err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, np.where(np.isfinite(err), err, 0.0)


# ---------------------------------------------------------------------------
# the refined pyramid of the one-third grids
#
# In thirds of a cell, a one-third grid's level-l cubes on one axis have
# side 3s, s = 2^(L - l), and offset o*s, o = ((-1)^l u) mod 3: the cube of
# index i is the three level-l blocks of s thirds from t = 3i + o on.  So
# each cell is split into three thirds along one axis, each carrying the
# cell's whole value (the sums are then 3x the masses, exactly), halved
# as the dyadic pyramid is, padded with two zero blocks at each end, and
# every three neighbouring blocks summed: position t + 2 holds the cube
# starting at block t, for all three offsets at once, clipped cubes
# included.  Then the next axis.  Every sum carries its TwoSum error, and
# every term is nonnegative, so a box holding no positive cell is 0.  The
# axis being summed is swapped with axis 0, so a block is whole rows.
# Weights stacked on leading batch axes walk the pyramid once, together:
# every step is elementwise across the batch, so each row keeps the bits
# of a walk of its own, and a row whose sums could pass the float64 range
# is summed at 2^-7 of its size and divided back at the end, row by row
# (_third_scale, _third_div), beside rows summed at scale 1; the scale is
# applied in place to the first refined array, which the walk owns, so no
# copy of the input is made.


def _move(x, ax: int):
    """x with axes 0 and ax swapped, a view that is its own inverse; an
    error of 0.0 passes as it is."""
    return np.swapaxes(x, 0, ax) if isinstance(x, np.ndarray) else x


def _pad(x: np.ndarray, before: int = 2, after: int = 2, repeat: int = 1) -> np.ndarray:
    """x's rows, each repeated, with zero rows added before and after."""
    out = np.zeros((before + repeat * x.shape[0] + after,) + x.shape[1:])
    out[before : out.shape[0] - after].reshape((x.shape[0], repeat) + x.shape[1:])[...] = x[:, None]
    return out


def _refine(a: np.ndarray, err) -> tuple:
    """a and err (an array or 0.0) with each row split into three thirds
    carrying its value, padded."""
    return tuple(_pad(x, repeat=3) if isinstance(x, np.ndarray) else x for x in (a, err))


def _coarser(a: np.ndarray, err) -> tuple:
    """The next coarser padded level: _halve of the rows between the pads,
    written between the new level's."""
    out = [np.zeros(((a.shape[0] - 4) // 2 + 4,) + a.shape[1:]) for _ in (a, err)]
    _halve(a[2:-2], (0,), err[2:-2] if isinstance(err, np.ndarray) else err, (out[0][2:-2], out[1][2:-2]))
    return tuple(out)


def _triple(a: np.ndarray, err, g: int | None = None) -> tuple:
    """(a[p] + a[p+1]) + a[p+2] at every position p of a padded level (or
    at p = g, g + 3, ...), with errors as _halve's; adding a pad's 0 is
    exact, its error 0."""
    n = a.shape[0] - 2

    def at(x, j):
        if not isinstance(x, np.ndarray):
            return x
        return x[j : n + j] if g is None else x[g + j : n + j : 3]

    s, e = _add(at(a, 0), at(a, 1), at(err, 0), at(err, 1))
    return _add(s, at(a, 2), e, at(err, 2))


def _third_scale(h: np.ndarray, lat: Lattice) -> np.ndarray:
    """The scale each batch row of h is summed at, shaped batch + (1,) *
    dim: 2^-7 (exact, down to 2^-1015) where a box's sum, 3^d < 2^7 times
    its mass, could pass the float64 range, a mass being at most the row's
    largest h / cell_volume; else 1."""
    top = h.max(axis=tuple(range(h.ndim - lat.dim, h.ndim)), keepdims=True)
    return np.where(top >= 2.0 ** (1016 - lat.dim * lat.depth), 2.0**-7, 1.0)


def _third_div(s: np.ndarray, e: np.ndarray, c: float, scale: np.ndarray) -> np.ndarray:
    """(s + e) / c / scale, scale per batch row (_third_scale), rounded to
    nearest up to near-ties, for c = 3^k < 2^7: q = s / c corrected by the
    remainder s - cq, exact with q's low 7 bits split off."""
    q = s / c
    hi = (q.view(np.int64) & -128).view(np.float64)
    lo = q - hi
    hi *= c
    np.subtract(s, hi, out=hi)
    lo *= c
    hi -= lo
    hi += e
    hi /= c
    hi += q
    if (scale != 1.0).any():
        hi /= scale
    return hi


class _ThirdPyramid:
    """The masses of every cube product of the one-third grids, one level
    tuple at a time, over a lattice whose axes form one factor (m None)
    or two (the first m and the rest), as _level_masses'.

    masses(h) yields (levels, groups, masses) for cellwise nonnegative h,
    its trailing lat.dim axes the lattice and its leading axes a batch of
    weights, each row summed at its own scale (_third_scale); masses
    leads with the batch.  Lattice axis k of masses holds, at position 3i
    + (o + 2) mod 3, the level cube of index i and offset o, or with
    groups[k] = g (not None) only the positions g, g + 3, ...: an axis is
    split by offset, leading axes first, where a row's block could pass
    limit = 2 (n + 1)^dim elements otherwise, n the cells per axis, so the
    grouping does not depend on the batch.  Each level is dropped once
    read.  A largest array past ARRAY_BUDGET_BYTES, every batch row
    counted, raises ResourceError in masses, before any is built.
    """

    def __init__(self, lat: Lattice, m: int | None):
        self.lat, self.dim, self.depth = lat, lat.dim, lat.depth
        self.n = lat.cells_per_axis
        self.limit = 2 * (self.n + 1) ** self.dim
        self.owner = [0] * lat.dim if m is None else [0] * m + [1] * (lat.dim - m)

    def _levels(self, k: int, lv: tuple) -> dict:
        """level -> level tuple, for each level axis k is read at."""
        f = self.owner[k]
        if f < len(lv):
            return {lv[f]: lv}
        return {level: lv + (level,) for level in range(self.depth, -1, -1)}

    def _groups(self, lead: int, k: int, lv: tuple) -> tuple:
        """(None,) or the residues (0, 1, 2) axis k is read in, lead its
        positions times those of axes 0..k-1 in one batch row, the later
        axes taken at their factor's level or, unread, the finest."""
        for j in range(k + 1, self.dim):
            f = self.owner[j]
            lead *= (3 << (lv[f] if f < len(lv) else self.depth)) + 2
        return (None,) if lead <= self.limit else (0, 1, 2)

    def peak(self, k: int = 0, lead: int = 1, lv: tuple = ()) -> int:
        """The elements of the largest array masses() builds, per batch
        row."""
        if k == self.dim:
            return lead
        rest = lead * self.n ** (self.dim - k - 1)
        out = (3 * self.n + 4) * rest
        for level, here in self._levels(k, lv).items():
            ext = (3 << level) + 2
            if self._groups(lead * ext, k, here) != (None,):
                ext = (1 << level) + 1
            out = max(out, self.peak(k + 1, lead * ext, here))
        return out

    def masses(self, h: np.ndarray):
        lead = h.ndim - self.dim
        need = 8 * math.prod(h.shape[:lead]) * self.peak()
        if need > ARRAY_BUDGET_BYTES:
            raise ResourceError(
                f"the one-third scan's largest array takes {need} bytes, "
                f"limit {ARRAY_BUDGET_BYTES} bytes"
            )
        scale = _third_scale(h, self.lat)
        c = 3.0**self.dim

        def walk(a, err, k, lv, groups):
            # lattice axis k leads while it is summed, swapped with axis 0
            ax = lead + k
            done = math.prod(a.shape[lead:ax])
            a, err = _refine(_move(a, ax), _move(err, ax))
            if k == 0 and (scale != 1.0).any():
                a *= _move(scale, ax)
            wanted = self._levels(k, lv)
            for level in range(self.depth, min(wanted) - 1, -1):
                if level < self.depth:
                    a, err = _coarser(a, err)
                if level not in wanted:
                    continue
                here = wanted[level]
                for g in self._groups((a.shape[0] - 2) * done, k, here):
                    sums = (_move(x, ax) for x in _triple(a, err, g))
                    if k + 1 == self.dim:
                        yield here, groups + (g,), _third_div(*sums, c, scale)
                    else:
                        yield from walk(*sums, k + 1, here, groups + (g,))

        return walk(h, 0.0, 0, (), ())


def _third_mass(h: np.ndarray, lat: Lattice, starts) -> np.ndarray:
    """The mass _ThirdPyramid gives one cube product, summed from its own
    cells by the same steps; starts holds per lattice axis (level, t), the
    box's blocks t, t + 1, t + 2 of that level, -2 <= t < 3 * 2^level."""
    scale = _third_scale(h, lat)
    wins = []
    for level, t in starts:
        s, top = 1 << (lat.depth - level), 3 << level
        lo, hi = max(t, 0), min(t + 3, top)
        wins.append((level, lo * s, hi * s, (lo - t, t + 3 - hi)))
    a, err = h[tuple(slice(lo // 3, -(-hi // 3)) for _, lo, hi, _ in wins)], 0.0
    if (scale != 1.0).any():
        a = a * scale
    for k, (level, lo, hi, pads) in enumerate(wins):
        # the box's thirds on axis k, leading, then its level blocks
        a, err = (
            np.repeat(x, 3, axis=0)[lo % 3 : lo % 3 + hi - lo] if isinstance(x, np.ndarray) else x
            for x in (_move(a, k), _move(err, k))
        )
        for _ in range(lat.depth - level):
            a, err = _halve(a, (0,), err)
        blocks = (_pad(x, *pads) if isinstance(x, np.ndarray) else x for x in (a, err))
        a, err = (_move(x, k) for x in _triple(*blocks))
    return _third_div(a, err, 3.0**lat.dim, scale)


def integrate(w: Weight, rect: Rect) -> float:
    """Mass of the rectangle: sum of density * cell_volume over its cells."""
    return power_integrate(w, rect, 1.0)


def power_integrate(w: Weight, rect: Rect, theta: float) -> float:
    """Integral of density**theta over the rectangle."""
    _check_rect(w.lattice, rect)
    return float(_own_mass(w.lattice, w.density, rect.lo, rect.hi, _check_theta(theta)))


def box_mass(w: Weight, lo, hi, theta: float = 1.0) -> float:
    """Mass of density**theta over an arbitrary (not necessarily aligned)
    box of [0,1]^d, its edges clipped to the unit box: each cell counted
    by the share of it the box covers (_own_mass)."""
    lat = w.lattice
    if len(lo) != lat.dim or len(hi) != lat.dim:
        raise ShapeError(f"box has {len(lo)} lower and {len(hi)} upper edges, lattice has {lat.dim} axes")
    n = lat.cells_per_axis
    lo, hi = (np.array([a * n for a in e], dtype=np.float64) for e in (lo, hi))
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise DomainError(f"box edges must not be NaN, got {lo / n}..{hi / n}")
    lo = np.clip(lo, 0.0, float(n))
    hi = np.maximum(np.clip(hi, 0.0, float(n)), lo)
    return float(_own_mass(lat, w.density, lo.tolist(), hi.tolist(), _check_theta(theta)))


def lp_norm(f: GridFunction, w: Weight, p: float) -> float:
    """(sum f^p * density * cell_volume)^(1/p)."""
    if not 1 <= p < math.inf:
        raise DomainError(f"p must be finite and >= 1, got {p}")
    if f.lattice != w.lattice:
        raise ShapeError("function and weight live on different lattices")
    return float(_lp_norms(w.lattice, f.values, w.density, p))


def _lp_norms(lat: Lattice, f: np.ndarray, u: np.ndarray, p: float) -> np.ndarray:
    """lp_norm over the trailing lat axes, per batch row: the p-th root of
    the _total of f**p * u * cell_volume.  A row whose largest term leaves
    [2^-968, max] takes f times 2^-a, a its largest value's exponent, and
    its root times 2^a, so a finite norm never overflows."""
    rows = f.shape[: f.ndim - lat.dim] + (-1,)
    f, cells = f.reshape(rows), (u * lat.cell_volume).reshape(u.shape[: u.ndim - lat.dim] + (-1,))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        terms = np.power(f, float(p)) * cells
        top = terms.max(axis=-1, initial=0.0)
        odd = ~((top >= 2.0**-968) & (top <= np.finfo(np.float64).max))
        a = None
        if odd.any():  # a is 0 on every other row, which keeps its bits
            a = np.where(odd, np.frexp(f.max(axis=-1, initial=0.0))[1], 0)
            terms = np.power(np.ldexp(f, -a[..., None]), float(p)) * cells
    norms = np.power(_total(terms), 1.0 / p)
    return norms if a is None else np.ldexp(norms, a)


def _refine_array(a: np.ndarray, extra: int) -> np.ndarray:
    out = a
    for axis in range(a.ndim):
        out = np.repeat(out, 1 << extra, axis=axis)
    return out


def _refined(x, values: np.ndarray, extra):
    """x, a Weight or GridFunction of these cell values, on a lattice
    extra levels deeper."""
    if (extra := _check_int("extra levels", extra, 0)) == 0:
        return x
    return type(x)(make_lattice(x.lattice.dim, x.lattice.depth + extra), _refine_array(values, extra))


def refine_weight(w: Weight, extra: int) -> Weight:
    """Same measure on a lattice `extra` levels deeper.

    Densities are piecewise constant, so every box mass is preserved exactly.
    """
    return _refined(w, w.density, extra)


def refine_function(f: GridFunction, extra: int) -> GridFunction:
    """Same piecewise-constant function viewed on a deeper lattice."""
    return _refined(f, f.values, extra)


# ---------------------------------------------------------------------------
# weight generators


def substream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based stream from one config seed and a fixed integer path.

    Philox keys do not depend on draw order, so shard scheduling can never
    change results.  A seed that is not a nonnegative integer raises
    DomainError, as does a path element that is not one (_check_int).
    """
    try:
        key = int(seed)
    except (TypeError, ValueError, OverflowError):
        key = -1
    if key < 0 or key != seed:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    ss = np.random.SeedSequence([key, *(_check_int("stream path", p, 0) for p in path)])
    return np.random.Generator(np.random.Philox(ss))


def _centers_grid(lat: Lattice) -> list[np.ndarray]:
    c = lat.cell_centers()
    return np.meshgrid(*([c] * lat.dim), indexing="ij")


def _axis_cascade(depth: int, beta: float, rng: np.random.Generator) -> np.ndarray:
    # 1D multiplicative cascade: each split sends fraction beta of the mass
    # to one side chosen by coin flip and 1-beta to the other.
    masses = np.array([1.0])
    for _ in range(depth):
        heavy_left = rng.integers(0, 2, size=masses.size).astype(bool)
        left = np.where(heavy_left, beta, 1.0 - beta) * masses
        right = masses - left
        masses = np.empty(masses.size * 2)
        masses[0::2] = left
        masses[1::2] = right
    return masses


# every weight kind and the descriptor fields gen_weight reads for it
WEIGHT_FIELDS = {
    "constant": ("value",),
    "power": ("exponent", "center"),
    "halfspace_cutoff": ("base",),
    "checkerboard": ("levels",),
    "random_lognormal": ("seed", "roughness"),
    "cascade": ("beta", "seed"),
}


def _field(spec: dict, key: str, cast, default=None):
    """A descriptor field cast to a number, DomainError when it is missing,
    the cast fails or an int cast would drop a fraction (substream's rule)."""
    raw = spec.get(key, default)
    if raw is None:
        raise DomainError(f"weight kind {spec['kind']!r} needs field {key!r}")
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or (cast is int and value != raw):
        raise DomainError(f"weight field {key!r} has an unusable value {raw!r}")
    return value


def gen_weight(lat: Lattice, spec: dict) -> Weight:
    """Deterministic weight from a descriptor dict (same spec -> same array).

    Kinds and their fields are WEIGHT_FIELDS: constant(value),
    power(exponent, center), halfspace_cutoff(base), checkerboard(levels),
    random_lognormal(seed, roughness), cascade(beta, seed).  Any other
    kind or field raises DomainError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("weight spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in WEIGHT_FIELDS:
        raise DomainError(f"unknown weight kind {kind!r}")
    extra = [key for key in spec if key != "kind" and key not in WEIGHT_FIELDS[kind]]
    if extra:
        raise DomainError(f"weight kind {kind!r} does not take field {extra[0]!r}")
    if kind == "constant":
        c = _field(spec, "value", float, 1.0)
        if c < 0 or not math.isfinite(c):
            raise DomainError(f"constant value must be finite and >= 0, got {c}")
        return Weight(lat, np.full(lat.shape, c))
    if kind == "power":
        a = _field(spec, "exponent", float)
        if a <= -1.0:
            raise DomainError(f"power exponent {a} <= -1 gives a non-integrable density")
        center = _field(
            spec, "center", lambda c: np.broadcast_to(np.asarray(c, np.float64), (lat.dim,)), 0.5
        )
        grids = _centers_grid(lat)
        dist2 = np.zeros(lat.shape)
        for k in range(lat.dim):
            dist2 += (grids[k] - center[k]) ** 2
        dist = np.sqrt(dist2)
        if a < 0 and np.any(dist == 0):
            raise DomainError("power center sits on a cell center; negative exponent diverges")
        return Weight(lat, dist**a)
    if kind == "halfspace_cutoff":
        base = gen_weight(lat, spec.get("base", {"kind": "constant", "value": 1.0}))
        grids = _centers_grid(lat)
        mask = np.ones(lat.shape, dtype=bool)
        for k in range(lat.dim):
            mask &= grids[k] >= 0.5
        return Weight(lat, base.density * mask)
    if kind == "checkerboard":
        levels = _field(spec, "levels", int, 1)
        if not 0 <= levels <= lat.depth:
            raise DomainError(f"checkerboard levels must be in [0, {lat.depth}], got {levels}")
        grids = _centers_grid(lat)
        parity = np.zeros(lat.shape, dtype=np.int64)
        for k in range(lat.dim):
            parity += np.floor(grids[k] * (1 << levels)).astype(np.int64)
        return Weight(lat, np.where(parity % 2 == 0, 2.0, 1.0))
    if kind == "random_lognormal":
        seed = _field(spec, "seed", int, 0)
        rough = _field(spec, "roughness", float, 0.5)
        if rough < 0:
            raise DomainError(f"roughness must be >= 0, got {rough}")
        rng = substream(seed, 101)
        return Weight(lat, np.exp(rough * rng.standard_normal(lat.shape)))
    if kind == "cascade":
        beta = _field(spec, "beta", float)
        if not 0.5 <= beta < 1.0:
            raise DomainError(f"cascade beta must be in [0.5, 1), got {beta}")
        seed = _field(spec, "seed", int, 0)
        dens = np.ones(())
        for k in range(lat.dim):
            axis = _axis_cascade(lat.depth, beta, substream(seed, 202, k))
            axis = axis * lat.cells_per_axis  # axis masses -> axis density factor
            dens = np.multiply.outer(dens, axis)
        return Weight(lat, dens.reshape(lat.shape))


# ---------------------------------------------------------------------------
# doubling scans


@dataclass(frozen=True)
class Witness:
    """Extremal configuration of a scan; reevaluate() reproduces the value."""

    kind: str
    rect: Rect
    other: Rect
    axis: int | None
    shrink: int | None
    value: float

    def reevaluate(self, w: Weight) -> float:
        """mass(other) / mass(rect) by the scan's own engine: a shrink's
        masses are summed from each box's own cells by the product-reverse
        pyramid's tree, one axis at a time (_own_mass), every other kind's
        are read from the pair prefix table (_weight_masses)."""
        num, den = (self._mass(w, box) for box in (self.other, self.rect))
        if den == 0.0:
            return INFINITE if num > 0 else 0.0
        return num / den

    def _mass(self, w: Weight, box: Rect) -> float:
        _check_rect(w.lattice, box)
        if self.kind != "shrink":
            return float(_weight_masses(w, box.lo, box.hi))
        # the scan's tiles and shrinks are 2^k cells wide on every axis
        if any(b - a < 1 or (b - a) & (b - a - 1) for a, b in zip(box.lo, box.hi)):
            raise ShapeError(f"a shrink's boxes are 2^k cells wide per axis, got {box.lo}..{box.hi}")
        return float(_own_mass(w.lattice, w.density, box.lo, box.hi, groups=[(ax,) for ax in range(box.dim)]))


@dataclass
class DoublingReport:
    """Measured extremal constants of one scan mode, with witnesses."""

    mode: str
    constant: float | None = None
    infinite: bool = False
    rev_C: float | None = None
    rev_eps: tuple[float, ...] | None = None
    rev_eps_cube: float | None = None
    strong_beta: float | None = None
    strong_absent: bool = False
    per_scale: dict | None = None
    witnesses: dict = field(default_factory=dict)

    @property
    def passes_reverse(self) -> bool:
        return self.rev_eps is not None and all(e > 0 for e in self.rev_eps)


# The cube, rectangle and strong scans read families of cell boxes: the
# outer product of per-axis (count, lo, hi), box a of an axis, 0 <= a <
# count, spanning the cells [a + lo, a + hi) clipped to [0, n], where a +
# lo <= n and a + hi >= 0, so a lower edge is clipped only to 0 and an
# upper one only to n.  A family's boxes are numbered in C order.


def _placements(n: int, sizes) -> tuple:
    """Every placement of a sizes-shaped cell box."""
    return tuple((n - m + 1, 0, m) for m in sizes)


def _doubles(n: int, sizes) -> tuple:
    """The doubles of _placements(n, sizes): [a - m/2, a + 3m/2), clipped."""
    return tuple((n - m + 1, -(m // 2), m + m // 2) for m in sizes)


def _edges(family, flat, n: int) -> tuple[list, list]:
    """Per-axis lower and upper edges of a family's boxes at flat (C order)
    positions, clipped to [0, n]."""
    pos = np.unravel_index(flat, [count for count, _, _ in family])
    lo = [np.clip(a + off, 0, n) for a, (_, off, _) in zip(pos, family)]
    hi = [np.clip(a + off, 0, n) for a, (_, _, off) in zip(pos, family)]
    return lo, hi


def _rect(family, flat: int, n: int) -> Rect:
    """The cell box at a flat position of a family."""
    lo, hi = _edges(family, flat, n)
    return Rect(tuple(int(a) for a in lo), tuple(int(b) for b in hi))


# The doubling and strong scans want the first box, in scan order (size
# tuple, then C order), of greatest ratio num / base, where num and base
# are float64 masses read by _weight_masses (num the larger of one or two
# boxes tied to the base box).  Nearly every box loses by a wide margin,
# so each ratio is first bounded from the prefix table's hi half, and
# only the boxes that may win go to the engine, which decides every box
# it is given: a filtered exact predicate, as in grids.
#
# The bound B on |m - e| for every box, where m is its screen mass (the
# hi table differenced one axis at a time, _differences) and e its
# float64 mass from the engine.  T is the pair table's value hi + lo, N =
# 2^d the corner count, n the cells per axis, u = 2^-53 and g(k, x) = kx
# / (1 - kx).  The cell values are nonnegative, so every exact prefix sum
# P is at most the top one, and each T is P to within k P, k = 2 d^2 (n +
# 1)^3 u^2: an axis's running sum takes at most n + 1 TwoSum errors of at
# most u P each, carries at most d (n + 1) u P of the axes before, and
# rounds its sum of errors at most n + 1 times (Ogita, Rump and Oishi,
# 2005).  So every T and hi is at most Tmax = top hi (1 + 2u).  M is the
# box's exact corner sum of T.
# - The screen rounds each corner T to hi, off by at most u Tmax, and
#   sums the N signed corners in float64 in some order, off by at most
#   g(N - 1, u) N (1 + u) Tmax (Higham, "Accuracy and Stability of
#   Numerical Algorithms", 2002, section 4.2).
# - The engine adds the corners' (hi, lo) pairs with every TwoSum error
#   (_add), rounding only errors below N^2 u Tmax, 2N times: M to within
#   2 N^3 u^2 Tmax <= N k Tmax.  It returns 0 for a box holding no positive
#   cell, whose P sum is 0, so |M| <= N k Tmax: 2 N k Tmax covers both.
# - e rounds the engine's sum to float64 once, off by at most 3u Tmax,
#   as that sum is at most 3 Tmax in magnitude.
# B is the sum of these times 1 + 2^-20, which covers evaluating it in
# float64, plus _TINY, which covers every float64 underflow (2^-1075 per
# rounding).  A Tmax near the float64 overflow makes B infinite, and
# every box undecided (so is a NaN from a table entry past the range).
# B also bounds each mass's distance to the box's exact mass X, the
# corner sum of P, apart: as |M - X| <= N k Tmax,
#   |m - X| <= (N u + g(N - 1, u) N (1 + u) + N k) Tmax <= B,
#   |e - X| <= (2 N k + 3u) Tmax <= B (e = X = 0 on a massless box).
#
# A box whose m is at most B is undecided: its engine base may be 0 or
# negative (massless, or a massless base under a massive double).  Every
# other box has e > 0, and its engine num lies within B of the screen's
# (the larger of values each within B), so its ratio fl(num / e) is at
# most hi = max(num + B, 0) / (m - B) (1 + u) and, where num > B, at least
# lo = (num - B) / (m + B) (1 - u), up to _TINY for underflow; each is
# evaluated with four float64 roundings, which the factors 1 -+ 2^-48
# cover.  A box whose hi is below the best lo seen, L, cannot win.
#
# A scan first tests the screen ratio r = fl(num / m) against one
# threshold.  With c >= B / m for every decided box of the scan, the
# computed hi is at most (max(r, 0)(1 + 2u) + c) / (1 - c) (1 + 2^-47)
# plus a few _TINY, so every box with r below
#   t = (L - 4 _TINY)(1 - c)(1 - 2^-44) - c (1 + 2^-44) - 4 _TINY
# has hi < L (the slack 2^-44 covers the factors above and the rounding
# of t, which errs by a few u of its larger term).  Only boxes with
# r >= t have their hi computed, and every box where t <= 0.
#
# Once L > 0, the cube and rectangle scans first bound whole blocks of
# placements (_block_bounds): per axis, runs of g = max(1, m // _BLOCK)
# consecutive placements, m the base side.  The cells are nonnegative,
# so exact masses grow with inclusion: each base of a block holds I, the
# intersection of the block's bases, and each numerator box lies in U,
# the union of its family's boxes over the block, clipped.  With the
# screen masses m_I and m_U, each within B of X, and each engine mass
# within B of its own X, a placement's engine base is at least m_I - 2B
# and its engine numerator at most m_U + 2B.  So where m_I > 2B its ratio
# is at most hi = max(m_U + 2B, 0) / (m_I - 2B) (1 + 2^-48) + _TINY, the
# factor covering the roundings of hi and of the ratio itself; a block
# with m_I <= 2B may hold a massless base, which may be an INFINITE, and
# gets hi = inf.  A scan whose every block has hi < L holds no first
# maximizer and no INFINITE, and is skipped whole, without a per-box
# screen; any other scan is screened box by box as above.  Where every g
# is 1 a block is one placement, and the per-box screen is the tighter
# read of the same boxes, so no block pass runs.  The strong scan runs
# none: its L sits near 1, where blocks rarely rule anything out.
#
# After a skipped scan, the next band of scans is bounded by one pass
# (_unskipped): a run of consecutive scans whose sides never shrink and
# stay within _BAND of the first's.  The pass reads the first scan's
# placements as its bases (the most placements and the smallest boxes,
# with the steps from its sides) and the last scan's doubles as its
# numerators (the lowest lo and highest hi offsets).  A placement a of any
# scan of the band lies in the first's block a // g, as a <= n - m for
# its side m >= the first's; its box holds that block's I, and its double,
# whose offsets spread as m grows, lies in the block's U.  So each block's
# hi bounds every placement it holds of every scan of the band, and a
# band whose every block lies below L is skipped whole; otherwise each
# of its scans is bounded alone.  Where no scan is skipped, as on most
# sizes of a weight whose placements tie, no band pass runs.

_U = 2.0**-53
_TINY = 2.0**-1060


def _screen_bound(tab: np.ndarray) -> float:
    """B: every box's screen mass over the pair table's hi half, tab[0],
    lies within B of its float64 mass from the engine."""
    d, n = tab.ndim - 1, tab.shape[-1] - 1
    corners = 1 << d
    top = float(tab[(0,) + (-1,) * d]) * (1 + 2 * _U)
    if not math.isfinite(top * corners * 4):
        return math.inf

    def g(k: int, x: float) -> float:
        return k * x / (1 - k * x)

    rel = (
        corners * _U
        + g(corners - 1, _U) * corners * (1 + _U)
        + 2 * corners * 2 * d**2 * (n + 1) ** 3 * _U**2
        + 3 * _U
    )
    return top * rel * (1 + 2.0**-20) + _TINY


def _differences(tab: np.ndarray, family) -> np.ndarray:
    """Box sums of a family over a float table, differenced one axis at a
    time: other roundings than box_masses', for the screen only.  A family
    axis may carry a step, (count, lo, hi, step), and then its box a spans
    [a step + lo, a step + hi), clipped.  An axis is read in at most three
    runs of boxes, cut where the lower edges stop being clipped to 0 and
    where the upper ones start being clipped to n, so each edge is a
    strided slice of the table or one entry; an axis with no clipped edge
    is one run, differenced into a fresh array.  Leading table axes are a
    batch; the family's are flattened."""
    n, d = tab.shape[-1] - 1, len(family)
    out = tab
    for k, (count, lo, hi, *step) in enumerate(family):
        s = step[0] if step else 1
        pre = (slice(None),) * (tab.ndim - d + k)
        end = (count - 1) * s + 1
        if lo >= 0 and end + hi <= n + 1:
            out = out[pre + (slice(hi, end + hi, s),)] - out[pre + (slice(lo, end + lo, s),)]
            continue
        nxt = np.empty(out.shape[: len(pre)] + (count,) + out.shape[len(pre) + 1 :])
        cuts = sorted({0, min(max(-(lo // s), 0), count), min(max((n - hi) // s + 1, 0), count), count})
        for a, b in zip(cuts, cuts[1:]):
            lower = slice(0, 1) if a * s + lo < 0 else slice(a * s + lo, b * s + lo, s)
            upper = slice(n, n + 1) if a * s + hi > n else slice(a * s + hi, b * s + hi, s)
            np.subtract(out[pre + (upper,)], out[pre + (lower,)], out=nxt[pre + (slice(a, b),)])
        out = nxt
    return out.reshape(out.shape[: tab.ndim - d] + (-1,))


def _engine(w: Weight, picks) -> list[np.ndarray]:
    """Float64 masses from _weight_masses of the boxes picked, one array
    per family role: picks holds (families, flat) pairs, flat the boxes' C
    order positions, and each role's boxes are gathered in one batch."""
    n = w.lattice.cells_per_axis
    out = []
    for k in range(len(picks[0][0])):
        ends = [_edges(families[k], flat, n) for families, flat in picks]
        lo, hi = ends[0] if len(ends) == 1 else ([np.concatenate(e) for e in zip(*side)] for side in zip(*ends))
        out.append(_weight_masses(w, lo, hi))
    return out


def _numerator(masses: list) -> np.ndarray:
    return masses[1] if len(masses) == 2 else np.maximum(masses[1], masses[2])


def _ratios(masses: list, infinite: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The scans' ratios of engine masses: -1 where the base does not
    count (0, or with infinite False not positive), and with infinite set
    the boxes whose massless base carries a massive numerator."""
    base, num = masses[0], _numerator(masses)
    ok = base != 0.0 if infinite else base > 0.0
    ratio = np.where(ok, num / np.where(ok, base, 1.0), -1.0)
    return ratio, (~ok & (num > 0.0)) if infinite else None


# boxes the engine is given per batch, which bounds its temporaries
_BATCH = 1 << 16
# a block pass bounds runs of max(1, m // _BLOCK) placements per axis
_BLOCK = 8
# a band's sides are at most _BAND times its first scan's
_BAND = 1.125


def _block_bounds(flt: np.ndarray, bound: float, families, steps) -> np.ndarray:
    """hi for every block of a scan, in C order, steps the placements per
    block on each axis: the first family's boxes are the bases, and the
    block reads the intersection of its bases and the clipped union of
    each numerator family's boxes; inf where the intersection's screen
    mass is at most 2B."""
    base, *nums = families
    blocks = [-(-count // g) for (count, _, _), g in zip(base, steps)]
    inner = _differences(flt, [(c, lo + g - 1, hi, g) for c, (_, lo, hi), g in zip(blocks, base, steps)])
    outer = _numerator([inner] + [
        _differences(flt, [(c, lo, hi + g - 1, g) for c, (_, lo, hi), g in zip(blocks, fam, steps)]) for fam in nums
    ])
    ok = inner > 2 * bound
    hi = np.maximum(outer + 2 * bound, 0.0) / np.where(ok, inner - 2 * bound, 1.0)
    return np.where(ok, hi * (1 + 2.0**-48) + _TINY, np.inf)


class _Candidates:
    """The boxes of a screened scan that go to the engine, read in batches
    of whole scans in scan order, and the first maximizer read so far.

    floor is L, the best lower bound on a ratio seen so far; best is None
    or, once a ratio above -1 has been read, _first_max's result tuple for
    the first maximizer read.
    """

    def __init__(self, w: Weight, infinite: bool):
        self.w, self.infinite = w, infinite
        self.floor = -math.inf
        self.best = None
        self.batch, self.size = [], 0

    def add(self, tag, families, flat: np.ndarray, hi: np.ndarray) -> None:
        """Boxes of one scan at flat positions, increasing, with the upper
        bounds on their ratios (inf for the undecided)."""
        self.batch.append((tag, families, flat, hi))
        self.size += flat.size

    def settle(self):
        """Read the boxes whose bound still reaches L as one array in scan
        order, the scans in turn, each in C order; returns the first
        INFINITE result if they hold one, else None."""
        batch, self.batch, self.size = self.batch, [], 0
        rows = [(tag, families, f) for tag, families, flat, hi in batch if (f := flat[hi >= self.floor]).size]
        if not rows:
            return None
        starts = np.cumsum([0] + [flat.size for *_, flat in rows])
        masses = _engine(self.w, [(families, flat) for _, families, flat in rows])
        ratio, inf = _ratios(masses, self.infinite)
        found = self.infinite and bool(inf.any())
        # the first INFINITE, else the first maximum, in scan order
        i = int(np.argmax(inf if found else ratio))
        k = int(np.searchsorted(starts, i, side="right")) - 1
        tag, families, flat = rows[k]
        value = INFINITE if found else float(ratio[i])
        won = value, found, tag, families, int(flat[i - starts[k]]), [m[i] for m in masses]
        if found:
            return won
        self.floor = max(self.floor, value)
        if value > (-1.0 if self.best is None else self.best[0]):
            self.best = won
        return None


def _sides(families) -> list[int]:
    return [hi - lo for _, lo, hi in families[0]]


def _unskipped(scans, below):
    """The scans, in order, that no block pass rules out; below(families,
    sides) tells whether every block of a family pair, its steps taken
    from sides, lies below L.  A scan with a step above 1 is bounded
    alone, and after a skipped scan the next band is bounded at once (see
    the comment above _screen_bound).  At most one band and one more scan
    are drawn from scans ahead of the scan being read."""
    scans = iter(scans)
    held, skipped = next(scans, None), False
    while held is not None:
        band, held = [held], None
        if skipped:
            first = last = _sides(band[0][1])
            for held in scans:
                sides = _sides(held[1])
                if not all(a <= b <= f * _BAND for a, b, f in zip(last, sides, first)):
                    break
                band.append(held)
                last = sides
            else:
                held = None
            if len(band) > 1 and below(band[0][1][:1] + band[-1][1][1:], first):
                continue
        for scan in band:
            sides = _sides(scan[1])
            skipped = max(sides) >= 2 * _BLOCK and below(scan[1], sides)
            if not skipped:
                yield scan
        if held is None:
            held = next(scans, None)


def _first_max(w: Weight, scans, infinite: bool, blocks: bool = False):
    """The first box of greatest ratio over every box of scans, an
    iterable of (tag, families) in scan order, families the base family
    and one or two numerator families of its shape, each read in C order.
    With blocks set, the families are _placements and _doubles of each
    scan's sides, and the scans that block passes rule out (_unskipped)
    are skipped before their per-box screen.

    Returns None when no ratio exceeds -1, else (value, infinite, tag,
    families, flat, masses) for the winning box, masses its engine masses
    per family: with infinite set, the first box whose massless base
    carries a massive numerator wins, at value INFINITE, and otherwise
    the first maximizer.  The engine reads every undecided box and every
    decided box whose hi reaches L, in batches of whole scans; a scan
    holding undecided boxes is read at once, so the first INFINITE ends
    the scan and their ratios raise L early.
    """
    tab = w.prefix(1.0)
    flt, bound = tab[0], _screen_bound(tab)
    cands = _Candidates(w, infinite)

    def below(families, sides) -> bool:
        steps = [max(1, m // _BLOCK) for m in sides]
        return cands.floor > 0 and bool((_block_bounds(flt, bound, families, steps) < cands.floor).all())

    for tag, families in _unskipped(scans, below) if blocks else scans:
        base = _differences(flt, families[0])
        und = np.empty(0, np.intp)
        if not base.min() > bound:  # or NaN, from a table past the float64 range
            und = np.flatnonzero(~(base > bound))
            base[und] = np.inf
        keep, hi = und, np.full(und.size, np.inf)
        low = base.min()
        if low < np.inf:
            num = _numerator([base] + [_differences(flt, g) for g in families[1:]])
            ratio = num / base
            i = int(np.argmax(ratio))
            if num[i] > bound:
                lo = (num[i] - bound) / (base[i] + bound) * (1 - 2.0**-48) - _TINY
                cands.floor = max(cands.floor, lo)
            floor, c = cands.floor, bound / low * (1 + 2.0**-44)
            t = 0.0
            if floor > 0 and c < 1:
                t = (floor - 4 * _TINY) * (1 - c) * (1 - 2.0**-44)
                t -= c * (1 + 2.0**-44) + 4 * _TINY
            if t <= 0:
                dec = np.flatnonzero(base < np.inf)
            else:
                dec = np.flatnonzero(ratio >= t) if ratio[i] >= t else np.empty(0, np.intp)
            bounds = np.maximum(num[dec] + bound, 0.0) / (base[dec] - bound)
            bounds = bounds * (1 + 2.0**-48) + _TINY
            dec, bounds = dec[bounds >= floor], bounds[bounds >= floor]
            keep, hi = np.concatenate([und, dec]), np.concatenate([hi, bounds])
            if und.size and dec.size:
                at = np.argsort(keep)
                keep, hi = keep[at], hi[at]
        if keep.size:
            cands.add(tag, families, keep, hi)
        if und.size or cands.size >= _BATCH:
            won = cands.settle()
            if won is not None:
                return won
    return cands.settle() or cands.best


def _scan_doubling(w: Weight, mode: str) -> DoublingReport:
    """Max ratio mass(2R clipped to box)/mass(R) over even-sided cell
    cubes, or with mode "rectangle" boxes."""
    lat = w.lattice
    n = lat.cells_per_axis
    even = range(2, n + 1, 2)
    size_tuples = _iproduct(even, repeat=lat.dim) if mode == "rectangle" else ((m,) * lat.dim for m in even)
    rep = DoublingReport(mode=mode, constant=0.0)
    # masses are rounded once to float64, so the ratios match
    # Witness.reevaluate bit for bit
    won = _first_max(w, ((s, (_placements(n, s), _doubles(n, s))) for s in size_tuples), True, blocks=True)
    if won is None:
        return rep
    value, rep.infinite, _, (boxes, doubles), i, _ = won
    rep.constant = value if value >= 0 else 0.0
    rep.witnesses["doubling"] = Witness("double", _rect(boxes, i, n), _rect(doubles, i, n), None, None, value)
    return rep


# The product-reverse scan reads every mass from one compensated pyramid,
# summed along one axis at a time, axis 0 first, each axis down to its
# level before the next.  A concentric shrink by 2^-s of the level-l edge
# of index i, s <= L - l - 1, is exactly the two level-(l + s + 1) blocks
# 2k + 1 and 2k + 2, k = i 2^s + 2^(s-1) - 1: an odd-offset pair, whose
# sum with its TwoSum error is one more halving step of those two blocks.
# Every odd-offset pair of a level is one shrink of one coarser edge, so
# each level of an axis gives two arrays, its halving and its pairs, and
# the 2^-s shrinks of the level-l edges are the pairs of level l + s + 1
# from k = 2^(s-1) - 1 on in steps of 2^s: a strided view.  An axis is
# walked fine to coarse, each level dropped once the next is summed and
# its pairs kept for the coarser ones.  Each level of an axis stacks, on a
# leading axis, the tiles, the cube shrinks while every level so far is
# equal, the earlier axes' shrinks (halved as the tiles are) and the
# tiles' shrinks along this axis; the last axis's levels hold every box a
# level tuple tests.  A box's mass is the tree sum of its own cells, which
# _tree_mass repeats with one group per axis.


def _scan_product_reverse(w: Weight) -> DoublingReport:
    """Dyadic rectangles, exactly cell-aligned concentric shrinks.

    A concentric shrink by 2^-s of a level-l dyadic edge stays cell-aligned
    exactly for s <= L - l - 1; those are the tested scales.  Per-axis
    shrinks give the product exponents, shrinking all axes of a dyadic cube
    at once gives the cube exponent.  A level tuple with no tested scale is
    not read.  Each scale keeps its first maximizer in level-tuple product
    order, then C order, as (ratio, levels, flat index); the report is
    built from those in one loop per axis and one for the cube.
    """
    lat = w.lattice
    depth, dim, n = lat.depth, lat.dim, lat.cells_per_axis
    best: dict[tuple, tuple] = {}  # ("axis", k, s) or ("cube", s) -> best

    def walk(a, err, labels, levels):
        # axis j of the lattice, axis j + 1 of the stack, is summed here.
        # Entry 0 of the stack holds the tiles; while every level so far is
        # equal, entries 1..cubes hold the cube shrinks by 2^-1, 2^-2, ...
        # of the earlier axes (at j = 1 the axis-0 shrinks), which from
        # j = 2 on are dropped once this axis shrinks them too.
        j, ax = len(levels), len(levels) + 1
        cubes = max(depth - levels[0] - 1, 0) if j and len(set(levels)) == 1 else 0
        partial = cubes if j > 1 else 0
        rest = (slice(None),) * (ax - 1)
        pairs = {}  # level -> (sums, errors) of the odd-offset pairs of entries 0..cubes

        def shrunk(entry: int, level: int, s: int) -> tuple:
            at = (slice(entry, entry + 1),) + rest + (slice((1 << (s - 1)) - 1, None, 1 << s),)
            return tuple(x[at] for x in pairs[level + s + 1])

        for level in range(depth, -1, -1):
            if level < depth:
                a, err = _halve(a, (ax,), err)
            scales = range(1, depth - level)
            cube = [("cube", s) for s in scales] if cubes and level == levels[0] else []
            mine = [("axis", j, s) for s in scales]
            here, part, perr = labels, a, err
            if cube or mine or partial:
                old = slice(1 + partial, None)
                here = labels[:1] + cube + labels[old] + mine
                cube_rows = [shrunk(s, level, s) for _, s in cube]
                mine_rows = [shrunk(0, level, s) for *_, s in mine]
                part, perr = (
                    np.concatenate([x[:1], *(r[k] for r in cube_rows), x[old], *(r[k] for r in mine_rows)])
                    for k, x in enumerate((a, err))
                )
            if j + 1 < dim:
                walk(part, perr, here, levels + (level,))
            elif len(here) > 1:
                read(part + perr, here, levels + (level,))
            del part, perr  # the stack goes before the pairs are built
            if level >= 2:
                inner = (slice(0, 1 + cubes),) + rest + (slice(1, -1),)
                pairs[level] = _halve(a[inner], (ax,), err[inner] if isinstance(err, np.ndarray) else err)

    def read(masses, labels, levels):
        base = masses[0]
        ok = base > 0.0
        if not ok.any():
            return
        ratios = np.where(ok, masses[1:] / np.where(ok, base, 1.0), -1.0).reshape(len(labels) - 1, -1)
        flat = ratios.argmax(axis=1)
        for lab, r, i in zip(labels[1:], ratios[np.arange(flat.size), flat].tolist(), flat.tolist()):
            # in 1D the cube shrinks are the axis's
            for key in (lab, ("cube", lab[-1])) if dim == 1 else (lab,):
                cur = best.get(key)
                # the walk runs fine to coarse; a tie goes to the first level tuple
                if cur is None or r > cur[0] or (r == cur[0] and levels < cur[1]):
                    best[key] = (r, levels, i)

    walk(_cellwise(lat, w.density)[None], 0.0, [("base",)], ())

    rep = DoublingReport(mode="product_reverse", rev_C=1.0, per_scale={})
    eps = []
    for key in [("axis", k) for k in range(dim)] + [("cube",)]:
        # the exponent is the worst decay -log2(ratio) / s over the tested
        # scales, and the witness the first scale's box that attains it
        worst, wit = INFINITE, None
        for s in range(1, depth):
            if key + (s,) not in best:
                continue
            r, levels, i = best[key + (s,)]
            rep.per_scale[key + (s,)] = r
            e = -math.log2(r) / s if r > 0.0 else INFINITE
            if e >= worst:
                continue
            worst = e
            sides = [n >> lv for lv in levels]
            lo = [int(p) * m for p, m in zip(np.unravel_index(i, [1 << lv for lv in levels]), sides)]
            hi = [a + m for a, m in zip(lo, sides)]
            # the shrink keeps the middle 2^-s of the tile's side on each axis it shrinks
            cut = [(m - (m >> s)) // 2 if key == ("cube",) or k == key[1] else 0 for k, m in enumerate(sides)]
            inner = Rect(tuple(a + c for a, c in zip(lo, cut)), tuple(b - c for b, c in zip(hi, cut)))
            wit = Witness("shrink", Rect(tuple(lo), tuple(hi)), inner, None, s, r)
        eps.append(0.0 if wit is None else max(worst, 0.0))
        if wit is not None:
            rep.witnesses["reverse_cube" if key == ("cube",) else f"reverse_axis_{key[1]}"] = wit
    rep.rev_eps, rep.rev_eps_cube = tuple(eps[:-1]), eps[-1]
    return rep


def _scan_strong(w: Weight) -> DoublingReport:
    """Max half-to-whole mass fraction over axis-halved even-edged boxes."""
    lat = w.lattice
    n = lat.cells_per_axis
    rep = DoublingReport(mode="strong")

    def scans():
        for axis in range(lat.dim):
            size_ranges = [
                range(2, n + 1, 2) if k == axis else range(1, n + 1) for k in range(lat.dim)
            ]
            for sizes in _iproduct(*size_ranges):
                boxes = _placements(n, sizes)
                count, _, m = boxes[axis]
                left = boxes[:axis] + ((count, 0, m // 2),) + boxes[axis + 1 :]
                right = boxes[:axis] + ((count, m // 2, m),) + boxes[axis + 1 :]
                yield axis, (boxes, left, right)

    won = _first_max(w, scans(), False)
    if won is None or won[0] < 0.0:
        rep.strong_absent = True
        return rep
    best, _, axis, (boxes, left, right), i, (_, lm, rm) = won
    side = _rect(left if lm >= rm else right, i, n)
    rep.witnesses["strong"] = Witness("half", _rect(boxes, i, n), side, axis, None, best)
    rep.strong_absent = best >= 1.0
    rep.strong_beta = None if rep.strong_absent else best
    return rep


def doubling_report(w: Weight, mode: str) -> DoublingReport:
    """Scan for the extremal ratios that define each weight-class constant.

    cube | rectangle: max mass(2R)/mass(R) over even-sided cubes or boxes
    at every position, doubles clipped to the unit box; a massless box
    with a massive double flags INFINITE.  0/0 placements are skipped.
    product_reverse: per-axis concentric-shrink decay exponents (C fixed
    at 1) plus the simultaneous cube exponent, dyadic rectangles only.
    strong: worst half-to-whole fraction, ABSENT when it reaches 1.
    rectangle and strong loop over their size tuples in Python, so more
    than SCAN_BUDGET_TUPLES of them raise ResourceError before any scan.
    cube, rectangle and strong keep the bits of a full scan through the
    pair prefix table: its hi half screens every ratio, and the pair
    engine decides every candidate, each box that can win or may be
    massless.  Once a ratio is known, cube and rectangle first bound
    whole blocks of placements of each size tuple, from the intersection
    of their boxes and the union of their doubles, and skip a size tuple
    whose blocks all lie below it; after a skip, one such pass bounds the
    next band of size tuples that grow by at most 1/8 on each axis, and
    skips the band whole where every block lies below.
    product_reverse reads no prefix table: every tile and shrunk box is a
    compensated pyramid sum of its own cells, within an ulp of its exact
    mass, and its witnesses re-evaluate through the same tree.
    """
    if mode not in ("cube", "rectangle", "product_reverse", "strong"):
        raise DomainError(f"unknown doubling mode {mode!r}")
    if w.lattice.depth < 2:
        raise DomainError("doubling scans need depth >= 2")
    n, d = w.lattice.cells_per_axis, w.lattice.dim
    tuples = {"rectangle": (n // 2) ** d, "strong": d * (n // 2) * n ** (d - 1)}.get(mode, 0)
    if tuples > SCAN_BUDGET_TUPLES:
        raise ResourceError(
            f"the {mode} scan visits {tuples} size tuples, limit {SCAN_BUDGET_TUPLES}"
        )
    if mode == "product_reverse":
        return _scan_product_reverse(w)
    if mode == "strong":
        return _scan_strong(w)
    return _scan_doubling(w, mode)


@dataclass(frozen=True)
class StrongRdBound:
    """Explicit doubling-bound chain from a strong reverse-doubling beta."""

    n_steps: int
    gamma: float
    m_steps: int
    doubling_constant: int

    def as_tuple(self):
        return (self.n_steps, self.gamma, self.m_steps, self.doubling_constant)


def strong_rd_doubling_bound(beta: float) -> StrongRdBound:
    """Smallest N >= 2 with beta^N < 1/4, gamma = 2^(N-1)/(2^(N-1)-1),
    smallest M with gamma^M >= 2, doubling constant 2^M (exact integer).

    The exponent M grows like ln2 * 2^(N-1), so betas close to 1 demand
    integers far beyond any memory; those raise ResourceError instead of
    attempting the materialization.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta must be in (0, 1), got {beta}")
    N = 2
    while beta**N >= 0.25:
        N += 1
    half = (1 << (N - 1)) - 1
    # ln(gamma) = -log1p(-2^-(N-1)); the log1p form stays accurate when
    # gamma hugs 1, where float(gamma) would round the gap away
    if N - 1 >= 40 or math.log(2.0) / math.log1p(1.0 / half) > MAX_BOUND_EXPONENT:
        raise ResourceError(
            f"beta={beta:.6g} gives cover ratio 1 + 2^-{N - 1}; the doubling "
            f"constant exponent is near ln2 * 2^{N - 1}, past the "
            f"{MAX_BOUND_EXPONENT}-bit budget"
        )
    gamma = Fraction(half + 1, half)
    # float estimate of M, then exact Fraction fixup in both directions
    M = max(1, math.ceil(math.log(2.0) / math.log1p(1.0 / half)) - 2)
    power = gamma**M
    while power < 2:
        power *= gamma
        M += 1
    while M > 1 and power / gamma >= 2:
        power /= gamma
        M -= 1
    return StrongRdBound(N, float(gamma), M, 1 << M)
