"""Grid family tests.

Oracle values (shifted-interval endpoints, sandwich witnesses, goodness
verdicts) were worked out by hand from the defining formulas before the
module was written; see the inline arithmetic next to each assertion.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    BoxCube,
    ContractViolationError,
    Cube,
    DomainError,
    DyadicGrid,
    FormatError,
    GoodnessParams,
    ScopeError,
    ShiftParam,
    bad_probability_mc,
    dyadic_distance,
    good_in,
    is_good,
    onethird_grids,
    parse_grid,
    random_grid,
    sample_grid,
    sample_shift,
    sandwich,
    standard_grid,
    substream,
    verify_grid,
)
from dyadlab import grids as grids_mod
from dyadlab.errors import ShapeError
from dyadlab.grids import deepest_common_level, deepest_common_levels, sandwiches


# ---------------------------------------------------------------------------
# construction and offsets


def test_standard_grid_cells():
    g = standard_grid(1, 0, 3)
    c = g.cube_at((0.3,), 2)
    lo, hi = c.bounds()
    assert (lo[0], hi[0]) == (Fraction(1, 4), Fraction(1, 2))
    for level in range(4):
        assert g.offset(0, level) == 0


def test_shift_example_level1_offset():
    # bits for levels 1 and 2; beta_2 = 1 puts level-1 intervals at
    # [k/2 + 1/4, k/2 + 3/4)
    sp = ShiftParam(0, 2, (0, 1))
    g = random_grid([sp])
    assert g.offset(0, 1) == Fraction(1, 4)
    assert g.offset(0, 2) == 0
    assert g.offset(0, 0) == Fraction(1, 4)
    c = g.cube_at((0.3,), 1)
    lo, hi = c.bounds()
    assert (lo[0], hi[0]) == (Fraction(1, 4), Fraction(3, 4))
    p = c.parent()
    plo, phi = p.bounds()
    assert plo[0] <= lo[0] and hi[0] <= phi[0]


def test_zero_shift_is_standard():
    g = random_grid([ShiftParam(0, 5, (0,) * 5)])
    std = standard_grid(1, 0, 5)
    for level in range(6):
        assert g.offset(0, level) == std.offset(0, level) == 0


def test_sample_shift_deterministic():
    a = sample_shift(7, 0, 10)
    b = sample_shift(7, 0, 10)
    c = sample_shift(8, 0, 10)
    assert a == b
    assert a != c
    g1 = sample_grid(3, 2, 0, 6)
    g2 = sample_grid(3, 2, 0, 6)
    assert g1 == g2


def test_shiftparam_validation():
    with pytest.raises(DomainError):
        ShiftParam(0, 3, (0, 1))
    with pytest.raises(DomainError):
        ShiftParam(0, 2, (0, 2))
    with pytest.raises(DomainError):
        ShiftParam(3, 1, ())


def test_onethird_counts_and_offsets():
    assert len(onethird_grids(1, 0, 6)) == 3
    assert len(onethird_grids(2, 0, 4)) == 9
    g = onethird_grids(1, 0, 4)[1]
    # u=1: even levels shift by side/3, odd levels by 2*side/3
    assert g.offset(0, 0) == Fraction(1, 3)
    assert g.offset(0, 1) == Fraction(2, 3) * Fraction(1, 2)
    assert g.offset(0, 2) == Fraction(1, 3) * Fraction(1, 4)
    with pytest.raises(DomainError):
        onethird_grids(5, 0, 2)


def test_grid_invariants_exhaustive():
    verify_grid(standard_grid(1, 0, 6))
    verify_grid(standard_grid(2, 0, 4))
    verify_grid(sample_grid(11, 1, 0, 8))
    verify_grid(sample_grid(12, 2, 0, 5))
    for g in onethird_grids(1, 0, 6):
        verify_grid(g)
    for g in onethird_grids(2, 0, 3)[::4]:
        verify_grid(g)


def test_nested_or_disjoint_spot():
    g = onethird_grids(1, 0, 8)[2]
    rng = substream(5, 1)
    for _ in range(200):
        x = (float(rng.uniform(0, 1)),)
        y = (float(rng.uniform(0, 1)),)
        la, lb = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        a, b = g.cube_at(x, la), g.cube_at(y, lb)
        alo, ahi = a.bounds()
        blo, bhi = b.bounds()
        inter = min(ahi[0], bhi[0]) > max(alo[0], blo[0])
        if inter:
            nested = (alo[0] <= blo[0] and bhi[0] <= ahi[0]) or (
                blo[0] <= alo[0] and ahi[0] <= bhi[0]
            )
            assert nested


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_roundtrip_std():
    g = standard_grid(2, 0, 5)
    line = g.descriptor()
    assert line == "GRID1 dim=2 kind=std levels=0..5 beta="
    assert parse_grid(line) == g


def test_descriptor_roundtrip_shift():
    g = sample_grid(9, 2, 0, 6)
    back = parse_grid(g.descriptor())
    assert back == g


def test_descriptor_roundtrip_third():
    g = DyadicGrid(2, 0, 4, "third", third=(1, 2))
    line = g.descriptor()
    assert "kind=third:5" in line
    assert parse_grid(line) == g


def test_descriptor_errors():
    with pytest.raises(FormatError):
        parse_grid("WGT1 dim=1")
    with pytest.raises(FormatError):
        parse_grid("GRID1 dim=1 kind=shift levels=0..3 beta=01")
    with pytest.raises(FormatError):
        parse_grid("GRID1 dim=1 kind=third:9 levels=0..3 beta=")
    with pytest.raises(FormatError):
        parse_grid("GRID1 dim=1 levels=0..3")
    # out-of-range dims and inverted level ranges are format errors too
    for line in (
        "GRID1 dim=0 kind=std levels=0..3",
        "GRID1 dim=1 kind=std levels=3..1",
        "GRID1 dim=0 kind=shift levels=0..2 beta=",
        "GRID1 dim=1000000000 kind=third:0 levels=0..3 beta=",
    ):
        with pytest.raises(FormatError):
            parse_grid(line)


_GRID_TOKENS = st.one_of(
    st.builds("dim={}".format, st.one_of(st.integers(-2, 10**9), st.text(max_size=3))),
    st.builds(
        "kind={}".format,
        st.one_of(
            st.sampled_from(("std", "shift", "third:")),
            st.builds("third:{}".format, st.integers(-3, 10**12)),
            st.text(max_size=6),
        ),
    ),
    st.builds("levels={}..{}".format, st.integers(-6, 12), st.integers(-6, 12)),
    st.builds("beta={}".format, st.text(alphabet="01x", max_size=40)),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_GRID_TOKENS, max_size=6))
def test_any_grid_line_parses_back_or_is_format_error(tokens):
    try:
        grid = parse_grid(" ".join(["GRID1", *tokens]))
    except FormatError:
        return
    assert parse_grid(grid.descriptor()) == grid


# ---------------------------------------------------------------------------
# dyadic distance


def test_dyadic_distance_hand_values():
    g = standard_grid(1, 0, 8)
    # smallest common dyadic interval of 0.1 and 0.3 is [0, 1/2)
    assert dyadic_distance((0.1,), (0.3,), g) == 0.5
    assert dyadic_distance((0.7,), (0.7,), g) == 2.0**-8
    # split at the top level: falls back to the box side
    assert dyadic_distance((0.1,), (0.9,), g) == 1.0


def test_dyadic_distance_dominates_euclidean():
    cases = [(standard_grid(1, 0, 8), 1), (onethird_grids(2, 0, 5)[4], 2)]
    rng = substream(21, 2)
    for grid, d in cases:
        pts = rng.uniform(0, 1, size=(5000, 2, d))
        for x, u in pts:
            dist = dyadic_distance(tuple(x), tuple(u), grid)
            assert dist >= float(np.linalg.norm(x - u)) / math.sqrt(d) - 1e-12


# ---------------------------------------------------------------------------
# goodness


def test_goodness_interval_example():
    g = standard_grid(1, 0, 8)
    j = Cube(g, 8, (63,))
    k = j.ancestor(8)
    # d(J, {0, 1/2, 1}) = 63/256, threshold 2*(2^-8)^(1/2) = 1/8
    assert good_in(j, k, 0.5)
    assert is_good(j, GoodnessParams(eps=0.5, r=8))


def test_goodness_touching_endpoint():
    g = standard_grid(1, 0, 4)
    j = Cube(g, 4, (0,))
    k = j.ancestor(4)
    assert not good_in(j, k, 0.5)
    assert not is_good(j, GoodnessParams(eps=0.5, r=4))


def test_goodness_conjunction_2d():
    g = standard_grid(2, 0, 6)
    params = GoodnessParams(eps=0.9, r=6)
    # y index 0 touches the boundary of [0,1)^2, x index 21 is interior
    assert not is_good(Cube(g, 6, (21, 0)), params)
    assert is_good(Cube(g, 6, (21, 21)), params)


def test_goodness_scope_error():
    g = standard_grid(1, 0, 8)
    j = Cube(g, 8, (63,))
    with pytest.raises(ScopeError):
        is_good(j, GoodnessParams(eps=0.5, r=9))
    # good_in needs a strict ancestor of the cube in the same grid
    with pytest.raises(DomainError):
        good_in(j, Cube(g, 0, (1,)), 0.5)
    with pytest.raises(DomainError):
        good_in(j, j, 0.5)
    with pytest.raises(DomainError):
        good_in(j, Cube(standard_grid(1, 0, 9), 0, (0,)), 0.5)
    with pytest.raises(DomainError):
        GoodnessParams(eps=1.5, r=2)
    with pytest.raises(DomainError):
        GoodnessParams(eps=0.5, r=0)


# ---------------------------------------------------------------------------
# sandwich


def test_sandwich_basic_interval():
    grids = onethird_grids(1, -2, 10)
    u, cube = sandwich(BoxCube((0.3,), 0.1), 0, grids)
    # tightest admissible side is 1/2; the standard grid's [0, 1/2)
    # already contains [0.25, 0.45)
    assert u == 0
    assert cube.level == 1
    lo, hi = cube.bounds()
    assert (lo[0], hi[0]) == (0, Fraction(1, 2))
    assert hi[0] - lo[0] <= Fraction(18, 10)


def test_sandwich_dyadic_cube_with_grandparents():
    grids = onethird_grids(1, -4, 8)
    p = BoxCube((0.0,), 0.25)
    u, cube = sandwich(p, 2, grids)
    # 3P = [-0.25, 0.5] straddles 0, so only the u=2 grid at side 1 works
    assert u == 2
    assert cube.level == 0
    lo, hi = cube.bounds()
    assert (lo[0], hi[0]) == (Fraction(-1, 3), Fraction(2, 3))
    anc = cube.ancestor(2)
    alo, ahi = anc.bounds()
    assert alo[0] <= Fraction(-3, 8) and Fraction(5, 8) <= ahi[0]


def test_sandwich_scope_error():
    grids = onethird_grids(1, 0, 8)
    with pytest.raises(ScopeError):
        sandwich(BoxCube((0.1,), 0.2), 0, grids)
    with pytest.raises(DomainError):
        BoxCube((0.1,), 0.0)


def _check_sandwich(p, j, grids):
    u, cube = sandwich(p, j, grids)
    assert 0 <= u < len(grids)
    s = Fraction(p.side)
    c = [Fraction(a) + s / 2 for a in p.lo]
    lo, hi = cube.bounds()
    assert hi[0] - lo[0] <= 18 * s
    assert cube.contains_box([x - 3 * s / 2 for x in c], [x + 3 * s / 2 for x in c])
    anc = cube.ancestor(j)
    w = Fraction(2**j) * s / 2
    assert anc.contains_box([x - w for x in c], [x + w for x in c])


def test_sandwich_random_1d():
    grids = onethird_grids(1, 0, 14)
    rng = substream(31, 3)
    sides = np.exp(rng.uniform(np.log(1e-3), np.log(0.05), size=700))
    los = rng.uniform(0, 1, size=700)
    for k in range(700):
        _check_sandwich(BoxCube((float(los[k]),), float(sides[k])), k % 3, grids)


def test_sandwich_random_2d():
    grids = onethird_grids(2, 0, 10)
    rng = substream(32, 3)
    sides = np.exp(rng.uniform(np.log(1e-2), np.log(0.05), size=200))
    los = rng.uniform(0, 1, size=(200, 2))
    for k in range(200):
        p = BoxCube((float(los[k, 0]), float(los[k, 1])), float(sides[k]))
        _check_sandwich(p, k % 3, grids)


# ---------------------------------------------------------------------------
# bad-cube Monte Carlo


def test_bad_probability_basic():
    est = bad_probability_mc(8, 0.9, 500, seed=4)
    assert 0.0 <= est.p_hat <= 1.0
    assert est.half_width >= 0.0
    assert est.samples == 500
    again = bad_probability_mc(8, 0.9, 500, seed=4)
    assert again.p_hat == est.p_hat


def test_bad_probability_validation():
    with pytest.raises(DomainError):
        bad_probability_mc(8, 0.25, 50, seed=1)
    with pytest.raises(DomainError):
        bad_probability_mc(8, 1.0, 500, seed=1)
    with pytest.raises(DomainError):
        bad_probability_mc(0, 0.25, 500, seed=1)
    with pytest.raises(ScopeError):
        bad_probability_mc(20, 0.25, 500, seed=1, depth=16)


@pytest.mark.parametrize(
    "args, depth, match",
    [((2.5, 0.25, 500), 16, "must be an integer"), ((8, 0.25, 1000.0), 16, "must be an integer"),
     ((True, 0.25, 500), 16, "must be an integer"), ((8, 0.25, np.float64(500.0)), 16, "must be an integer"),
     ((8, 0.25, 500), 16.5, "must be an integer"), ((8, 0.25, 500), 63, "at most 62")],
    ids=["gap", "samples", "bool-gap", "numpy-float-samples", "depth", "int64-depth"],
)
def test_bad_probability_refuses_a_non_integer_gap_sample_count_or_depth(args, depth, match):
    # a float gap, sample count or depth raised TypeError inside the
    # kernel, and depth 70 OverflowError in its int64 offsets
    with pytest.raises(DomainError, match=match):
        bad_probability_mc(*args, seed=1, depth=depth)
    want = bad_probability_mc(8, 0.25, 500, seed=1)
    assert bad_probability_mc(np.int64(8), 0.25, np.int64(500), seed=1, depth=np.int64(16)) == want


@pytest.mark.parametrize("r", [2.5, 2.0, True, "2"])
def test_goodness_params_refuse_a_non_integer_r(r):
    # GoodnessParams(0.25, 2.5) was accepted, and is_good then raised
    # TypeError
    with pytest.raises(DomainError, match="r must be an integer >= 1"):
        GoodnessParams(0.25, r)


def test_bad_probability_quarter_eps_saturates():
    # With eps=1/4 the threshold 2^(1+3g/4) exceeds the largest possible
    # skeleton distance (about 2^(g-2)) for every gap g <= 12, so any gap
    # in that range marks the cube bad in every grid.  All three
    # estimates sit at exactly 1 and the decay bound holds degenerately.
    p4 = bad_probability_mc(4, 0.25, 2000, seed=9)
    p8 = bad_probability_mc(8, 0.25, 2000, seed=9)
    p12 = bad_probability_mc(12, 0.25, 2000, seed=9)
    assert p4.p_hat == p8.p_hat == p12.p_hat == 1.0
    assert p12.p_hat <= 4.0 * 2.0**-2 * p4.p_hat + p4.half_width + p12.half_width


def test_bad_probability_decays_when_informative():
    # eps=0.9 keeps thresholds below saturation for gaps >= 4
    p4 = bad_probability_mc(4, 0.9, 4000, seed=9)
    p12 = bad_probability_mc(12, 0.9, 4000, seed=9)
    assert p12.p_hat + p12.half_width < p4.p_hat - p4.half_width
    # same seed shares the sampled shifts, so the bad events nest exactly
    p8 = bad_probability_mc(8, 0.9, 4000, seed=9)
    assert p4.p_hat >= p8.p_hat >= p12.p_hat


def test_bad_probability_geometric_agreement():
    # replay the sampled shifts through the slow geometric path and compare
    # the per-grid verdicts with the integer fast path
    depth, samples, r, eps = 12, 100, 9, 0.85
    est = bad_probability_mc(r, eps, samples, seed=17, depth=depth)
    bits = substream(17, 7001).integers(0, 2, size=(samples, depth), dtype=np.int64)
    j0 = (1 << depth) // 3
    point = ((j0 + 0.5) * 2.0**-depth,)
    bad = 0
    for row in bits:
        g = random_grid([ShiftParam(0, depth, tuple(int(b) for b in row))])
        cube = g.cube_at(point, depth)
        assert cube.index == (j0,)
        if not is_good(cube, GoodnessParams(eps=eps, r=r)):
            bad += 1
    assert est.p_hat == bad / samples


# ---------------------------------------------------------------------------
# Fraction oracle for the integer geometry
#
# The formulas below are the package's former rational-arithmetic geometry:
# offsets, cube location, bounds, ancestors and the exact sandwich search,
# all in Fraction.  The integer path must agree with them everywhere.


def _pow2(k):
    return Fraction(1, 1 << k) if k >= 0 else Fraction(1 << (-k))


def _ref_offset(grid, axis, level):
    if grid.kind == "std":
        return Fraction(0)
    if grid.kind == "shift":
        return grid.shifts[axis].offset_cells(level) * _pow2(grid.hi)
    u = grid.third[axis]
    return Fraction((u if level % 2 == 0 else -u) % 3, 3) * _pow2(level)


def _ref_cube_at(grid, point, level):
    side = _pow2(level)
    return tuple(
        math.floor((Fraction(point[k]) - _ref_offset(grid, k, level)) / side)
        for k in range(grid.dim)
    )


def _ref_bounds(grid, level, index):
    side = _pow2(level)
    lo = tuple(index[k] * side + _ref_offset(grid, k, level) for k in range(grid.dim))
    return lo, tuple(a + side for a in lo)


def _ref_ancestor(grid, level, index, j):
    lvl = level - j
    lo, _ = _ref_bounds(grid, level, index)
    return lvl, tuple(
        math.floor((lo[k] - _ref_offset(grid, k, lvl)) / _pow2(lvl)) for k in range(grid.dim)
    )


def _ref_contains(grid, level, index, box_lo, box_hi, open_hi):
    lo, hi = _ref_bounds(grid, level, index)
    for k in range(grid.dim):
        a, b = Fraction(box_lo[k]), Fraction(box_hi[k])
        if a < lo[k] or b > hi[k] or (open_hi and b == hi[k]):
            return False
    return True


def _ref_deepest_common(grid, x, u):
    for level in range(grid.hi, grid.lo - 1, -1):
        if _ref_cube_at(grid, x, level) == _ref_cube_at(grid, u, level):
            return level
    return None


def _ref_sandwich(p, j, grids):
    """First (u, level, index) of the exact search over the bracketing levels."""
    s = Fraction(p.side)
    c = tuple(Fraction(a) + s / 2 for a in p.lo)
    t_lo, t_hi = tuple(x - 3 * s / 2 for x in c), tuple(x + 3 * s / 2 for x in c)
    half = Fraction(2**j) * s / 2
    e_lo, e_hi = tuple(x - half for x in c), tuple(x + half for x in c)
    lev_hi = math.floor(-math.log2(3 * p.side))
    lev_lo = math.ceil(-math.log2(18 * p.side))
    for level in range(lev_hi + 1, lev_lo - 2, -1):
        side = _pow2(level)
        if side < 3 * s or side > 18 * s:
            continue
        for u, grid in enumerate(grids):
            idx = _ref_cube_at(grid, c, level)
            if not _ref_contains(grid, level, idx, t_lo, t_hi, False):
                continue
            lvl, aidx = _ref_ancestor(grid, level, idx, j)
            if _ref_contains(grid, lvl, aidx, e_lo, e_hi, False):
                return u, level, idx
    return None


@st.composite
def _grids(draw, max_dim=2, lo_min=-4, hi_max=10):
    dim = draw(st.integers(1, max_dim))
    lo = draw(st.integers(lo_min, hi_max))
    hi = draw(st.integers(lo, hi_max))
    kind = draw(st.sampled_from(("std", "shift", "third")))
    if kind == "std":
        return standard_grid(dim, lo, hi)
    if kind == "third":
        return DyadicGrid(dim, lo, hi, "third", third=tuple(draw(st.integers(0, 2)) for _ in range(dim)))
    bits = st.lists(st.integers(0, 1), min_size=hi - lo, max_size=hi - lo)
    return random_grid([ShiftParam(lo, hi, tuple(draw(bits))) for _ in range(dim)])


@st.composite
def _points(draw, grid):
    """A random float point, or one sitting exactly on a cube bound of the
    grid (a Fraction, or its float when that is exact)."""
    if draw(st.booleans()):
        return tuple(draw(st.floats(-1.5, 2.5)) for _ in range(grid.dim))
    level = draw(st.integers(grid.lo - 3, grid.hi + 3))
    index = tuple(draw(st.integers(-3, (1 << max(level, 0)) + 3)) for _ in range(grid.dim))
    lo, _ = _ref_bounds(grid, level, index)
    if all(float(a) == a for a in lo) and draw(st.booleans()):
        return tuple(float(a) for a in lo)
    return lo


@settings(max_examples=150, deadline=None)
@given(_grids(max_dim=4, lo_min=-6, hi_max=8))
def test_random_grids_roundtrip_descriptors(grid):
    assert parse_grid(grid.descriptor()) == grid


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_integer_geometry_matches_fraction_oracle(data):
    grid = data.draw(_grids())
    point = data.draw(_points(grid))
    level = data.draw(st.integers(grid.lo - 3, grid.hi + 3))
    for axis in range(grid.dim):
        assert grid.offset(axis, level) == _ref_offset(grid, axis, level)
    cube = grid.cube_at(point, level)
    assert cube.index == _ref_cube_at(grid, point, level)
    assert cube.bounds() == _ref_bounds(grid, level, cube.index)
    assert cube.contains_point(point)
    # the upper bound of a cube belongs to its neighbour
    _, hi = cube.bounds()
    assert not cube.contains_point(hi)
    other = data.draw(_points(grid))
    assert cube.contains_point(other) == _ref_contains(grid, level, cube.index, other, other, True)
    box_hi = tuple(max(Fraction(a), Fraction(b)) for a, b in zip(point, other))
    box_lo = tuple(min(Fraction(a), Fraction(b)) for a, b in zip(point, other))
    assert cube.contains_box(box_lo, box_hi) == _ref_contains(
        grid, level, cube.index, box_lo, box_hi, False
    )
    j = data.draw(st.integers(0, 6))
    anc = cube.ancestor(j)
    assert (anc.level, anc.index) == _ref_ancestor(grid, level, cube.index, j)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_deepest_common_level_matches_fraction_oracle(data):
    grid = data.draw(_grids())
    x = data.draw(_points(grid))
    u = data.draw(st.one_of(_points(grid), st.just(x)))
    want = _ref_deepest_common(grid, x, u)
    assert deepest_common_level(grid, x, u) == want
    assert dyadic_distance(x, u, grid) == (1.0 if want is None else float(_pow2(want)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sandwich_matches_fraction_oracle(data):
    dim = data.draw(st.integers(1, 2))
    lo = data.draw(st.integers(-4, 0))
    grids = onethird_grids(dim, lo, data.draw(st.integers(lo, 16)))
    j = data.draw(st.integers(0, 3))
    side = 2.0 ** -data.draw(st.floats(4.5 - lo, 20.0))
    if data.draw(st.booleans()):
        p_lo = tuple(data.draw(st.floats(0.0, 1.0)) for _ in range(dim))
    else:
        # put the lower edge of 3P exactly on a cube bound of some grid
        u = data.draw(st.integers(0, len(grids) - 1))
        level = data.draw(st.integers(max(lo, math.ceil(-math.log2(18 * side)) - 1), 30))
        index = tuple(data.draw(st.integers(0, (1 << level) - 1)) for _ in range(dim))
        bound, _ = _ref_bounds(grids[u], level, index)
        p_lo = tuple(a + Fraction(side) for a in bound)
    p = BoxCube(p_lo, side)
    want = _ref_sandwich(p, j, grids)
    assert want is not None
    u, cube = sandwich(p, j, grids)
    assert (u, cube.level, cube.index) == want


def test_sandwich_below_the_finest_level():
    # a side-1e-9 interval needs cubes far finer than the family's level 16
    grids = onethird_grids(1, 0, 16)
    for lo, level in ((0.0, 28), (0.5, 28), (0.3, 27)):
        p = BoxCube((lo,), 1e-9)
        u, cube = sandwich(p, 0, grids)
        assert cube.level == level
        assert (u, cube.level, cube.index) == _ref_sandwich(p, 0, grids)


# ---------------------------------------------------------------------------
# non-finite input


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_domain_errors(bad):
    grid = onethird_grids(1, 0, 8)[1]
    with pytest.raises(DomainError):
        BoxCube((0.1,), bad)
    with pytest.raises(DomainError):
        BoxCube((bad,), 0.1)
    with pytest.raises(DomainError):
        grid.cube_at((bad,), 3)
    with pytest.raises(DomainError):
        deepest_common_level(grid, (0.2,), (bad,))
    with pytest.raises(DomainError):
        Cube(grid, 2, (1,)).contains_point((bad,))
    with pytest.raises(DomainError):
        sandwiches([[bad]], [0.01], 0, [grid])
    with pytest.raises(DomainError):
        sandwiches([[0.1]], [bad], 0, [grid])
    with pytest.raises(DomainError):
        deepest_common_levels(grid, [[0.1]], [[bad]])


def test_sandwich_checks_the_cube_dimension():
    with pytest.raises(ShapeError):
        sandwich(BoxCube((0.1,), 0.01), 0, onethird_grids(2, 0, 8))
    with pytest.raises(ShapeError):
        sandwich(BoxCube((0.1, 0.5), 0.01), 0, [standard_grid(1, 0, 8)])


def test_batch_shapes_are_validated():
    grids = onethird_grids(2, 0, 8)
    with pytest.raises(ShapeError):
        sandwiches([0.1, 0.2], [0.01], 0, grids)
    with pytest.raises(ShapeError):
        sandwiches([[0.1, 0.2]], [0.01, 0.02], 0, grids)
    with pytest.raises(ShapeError):
        sandwiches([[0.1]], [0.01], 0, grids)
    with pytest.raises(ShapeError):
        sandwiches([[0.1]], [0.01], 0, [standard_grid(1, 0, 8), standard_grid(2, 0, 8)])
    with pytest.raises(DomainError):
        sandwiches([[0.1, 0.2]], [0.0], 0, grids)
    with pytest.raises(DomainError):
        sandwiches([[0.1, 0.2]], [0.01], -1, grids)
    with pytest.raises(DomainError):
        sandwiches([[0.1, 0.2]], [0.01], 0, [])
    with pytest.raises(ShapeError):
        deepest_common_levels(grids[0], [[0.1, 0.2]], [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ShapeError):
        deepest_common_levels(grids[0], [[0.1]], [[0.3]])
    u, level, index = sandwiches(np.zeros((0, 2)), np.zeros(0), 0, grids)
    assert u.shape == level.shape == (0,) and index.shape == (0, 2)
    assert deepest_common_levels(grids[0], np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)


# ---------------------------------------------------------------------------
# batched geometry against the scalar search and the Fraction oracle
#
# Rows are drawn where the float64 filter is weakest: corners, centers and
# the edges of 3P and 2^j P on cube bounds and one-third vertices, their
# float64 neighbours, and sides at and next to 2^-L/3 and 2^-L/18, the ends
# of the side bracket.


def _family(draw, dim):
    kind = draw(st.sampled_from(("std", "shift", "third", "mixed")))
    lo = draw(st.integers(-4, 2))
    hi = draw(st.integers(max(lo, 0), 12))
    if kind == "third":
        return onethird_grids(dim, lo, hi)
    if kind == "std":
        return [standard_grid(dim, lo, hi)]
    bits = st.lists(st.integers(0, 1), min_size=hi - lo, max_size=hi - lo)
    shifted = [
        random_grid([ShiftParam(lo, hi, tuple(draw(bits))) for _ in range(dim)])
        for _ in range(draw(st.integers(1, 3)))
    ]
    if kind == "shift":
        return shifted
    return [standard_grid(dim, lo, hi), *shifted, *onethird_grids(dim, lo, hi)[1:3]]


def _near(draw, x: float) -> float:
    """x or one of its nearest float64 neighbours."""
    for _ in range(draw(st.integers(0, 2))):
        x = math.nextafter(x, draw(st.sampled_from((math.inf, -math.inf))))
    return x


@st.composite
def _sandwich_row(draw, grids, j):
    dim = grids[0].dim
    level = draw(st.integers(1, 14))
    if draw(st.booleans()):
        side = _near(draw, float(_pow2(level) / draw(st.sampled_from((3, 18)))))
    else:
        side = 2.0 ** -draw(st.floats(1.0, 20.0))
    side = max(side, 2.0**-40)
    if draw(st.booleans()):
        return tuple(draw(st.floats(-1.5, 2.5)) for _ in range(dim)), side
    # put a corner, the center, or an edge of 3P or of 2^j P on a cube bound
    grid = draw(st.sampled_from(grids))
    blevel = draw(st.integers(max(level - 6, -2), level + 6))
    index = tuple(draw(st.integers(-2, (1 << max(blevel, 0)) + 2)) for _ in range(dim))
    bound, _ = _ref_bounds(grid, blevel, index)
    s = Fraction(side)
    shift = draw(st.sampled_from((Fraction(0), s, -s / 2, s / 2 - Fraction(2**j) * s / 2, -2 * s)))
    return tuple(_near(draw, float(b + shift)) for b in bound), side


def _scalar_rows(rows, j, grids):
    """Per row, (u, level, index) or the error type of the scalar search."""
    out = []
    for lo, side in rows:
        try:
            u, cube = sandwich(BoxCube(lo, side), j, grids)
            out.append((u, cube.level, cube.index))
        except (ScopeError, ContractViolationError) as exc:
            out.append(type(exc))
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sandwiches_match_scalar_and_fraction_oracle(data):
    dim = data.draw(st.integers(1, 3))
    grids = _family(data.draw, dim)
    j = data.draw(st.integers(0, 3))
    rows = data.draw(st.lists(_sandwich_row(grids, j), min_size=1, max_size=10))
    want = _scalar_rows(rows, j, grids)
    for (lo, side), w in zip(rows, want):
        if w is ScopeError:
            continue
        ref = _ref_sandwich(BoxCube(lo, side), j, grids)
        assert (ref is None) if w is ContractViolationError else (ref == w)
    lo = np.array([r[0] for r in rows])
    side = np.array([r[1] for r in rows])
    errors = [w for w in (ScopeError, ContractViolationError) if w in want]
    if errors:
        with pytest.raises(errors[0]):
            sandwiches(lo, side, j, grids)
        return
    u, level, index = sandwiches(lo, side, j, grids)
    got = [(int(a), int(b), tuple(c)) for a, b, c in zip(u, level, index.tolist())]
    assert got == want


def test_sandwiches_hand_exact_rows_back_in_place(monkeypatch):
    """An aligned row whose 3P edge sits on a cube bound goes to the exact
    search; the decided rows around it keep their own answers."""
    grids = onethird_grids(1, -4, 16)
    calls = []
    scalar = grids_mod.sandwich

    def spy(p, j, family):
        calls.append(p.lo)
        return scalar(p, j, family)

    monkeypatch.setattr(grids_mod, "sandwich", spy)
    # P = [1/16, 2/16]: 3P = [0, 3/16] touches the lower bound of the
    # standard grid's level-2 cube [0, 1/4), the first candidate searched,
    # so the float64 margin is exactly 0 and the row cannot be decided
    rows = [((0.0625,), 1 / 16), ((0.3,), 0.01), ((0.61,), 0.003), ((0.0625,), 1 / 16)]
    u, level, index = sandwiches([r[0] for r in rows], [r[1] for r in rows], 0, grids)
    assert calls == [(0.0625,), (0.0625,)]
    assert (u[0], level[0], index[0, 0]) == (0, 2, 0)
    got = [(int(a), int(b), tuple(c)) for a, b, c in zip(u, level, index.tolist())]
    assert got == _scalar_rows(rows, 0, grids)


@pytest.mark.parametrize(
    "center_units, side_units, offset_bits",
    [
        (1024.0754003585903, 0.24784308461970225, 658417938926080721),
        (268435456.34375495, 0.1145842653959189, 660535788357262206),
        (134217728.72793737, 0.10078349979767959, 1071645578717116395),
    ],
)
def test_sandwiches_keep_the_full_error_bound(center_units, side_units, offset_bits):
    """Rows where the float64 error of the cube position exceeds half the
    filter's bound.  The scaled corner lies just above a power of two, so
    t = fl(c - phi) drops a binade, and the shift grid's level-10 offset
    carries 60 bits, so both roundings can approach half an ulp; 3P's
    edge sits within that error of the cube bound."""
    level = 10
    lo, side = math.ldexp(center_units, -level), math.ldexp(side_units, -level)
    bits = (0,) * (level + 4) + tuple(int(c) for c in format(offset_bits, "060b"))
    shifted = random_grid([ShiftParam(-4, level + 60, bits)])
    assert shifted.offset(0, level) * _pow2(-level) == Fraction(offset_bits, 1 << 60)
    grids = [shifted, *onethird_grids(1, -4, level + 60)]
    p = BoxCube((lo,), side)
    want = _scalar_rows([((lo,), side)], 0, grids)
    assert want == [_ref_sandwich(p, 0, grids)]
    u, lv, index = sandwiches([[lo]], [side], 0, grids)
    assert [(int(u[0]), int(lv[0]), tuple(index[0].tolist()))] == want


def test_sandwiches_on_a_cell_aligned_lattice():
    grids = onethird_grids(1, -4, 16)
    lo = np.arange(1999)[:, None] / 2048
    side = np.full(1999, 2.0**-7)
    rows = [((float(a),), float(s)) for a, s in zip(lo[:, 0], side)]
    for j in (0, 2):
        u, level, index = sandwiches(lo, side, j, grids)
        got = [(int(a), int(b), tuple(c)) for a, b, c in zip(u, level, index.tolist())]
        assert got == _scalar_rows(rows, j, grids)


@st.composite
def _point_row(draw, grid):
    if draw(st.booleans()):
        return tuple(draw(st.floats(-1.5, 2.5)) for _ in range(grid.dim))
    return tuple(_near(draw, float(a)) for a in draw(_points(grid)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_deepest_common_levels_match_scalar_and_fraction_oracle(data):
    grid = data.draw(_grids(max_dim=3))
    xs = data.draw(st.lists(_point_row(grid), min_size=1, max_size=8))
    us = [data.draw(st.one_of(_point_row(grid), st.just(x))) for x in xs]
    got = deepest_common_levels(grid, xs, us)
    for x, u, level in zip(xs, us, got.tolist()):
        want = deepest_common_level(grid, x, u)
        assert want == _ref_deepest_common(grid, x, u)
        assert level == (grid.lo - 1 if want is None else want)
