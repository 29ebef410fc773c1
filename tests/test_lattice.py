"""Lattice core: exact integration, generators, doubling scans, WGT1 files.

Numeric oracle values asserted here were computed independently (naive
summation, closed forms, exact big-integer arithmetic) before the
implementation existed.
"""
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.errors import (
    AlignmentError,
    DomainError,
    FormatError,
    ResourceError,
    ShapeError,
)
from dyadlab.lattice import (
    INFINITE,
    GridFunction,
    Rect,
    Weight,
    doubling_report,
    full_rect,
    gen_weight,
    integrate,
    box_mass,
    box_masses,
    lp_norm,
    make_lattice,
    power_integrate,
    rect_from_bounds,
    strong_rd_doubling_bound,
    substream,
    tile_edges,
)
from dyadlab.lattice import _masses, _positive_counts, _weight_masses
from dyadlab.weightio import read_weight, write_weight


def lebesgue(lat):
    return gen_weight(lat, {"kind": "constant", "value": 1.0})


def test_make_lattice_counts():
    lat = make_lattice(1, 3)
    assert lat.cell_count == 8
    assert lat.cells_per_axis == 8
    assert lat.cell_volume == 0.125
    lat2 = make_lattice(2, 4)
    assert lat2.cell_count == 256
    assert lat2.shape == (16, 16)
    assert lat2.cell_side == 1 / 16


def test_make_lattice_validation():
    with pytest.raises(ResourceError):
        make_lattice(2, 13)
    with pytest.raises(DomainError):
        make_lattice(0, 3)
    with pytest.raises(DomainError):
        make_lattice(5, 2)
    with pytest.raises(DomainError):
        make_lattice(1, -1)


def test_integrate_basic():
    lat = make_lattice(1, 4)
    w = lebesgue(lat)
    assert integrate(w, rect_from_bounds(lat, (0,), (0.5,))) == 0.5
    step = Weight(lat, [2.0] * 8 + [0.0] * 8)
    assert integrate(step, full_rect(lat)) == 1.0
    assert integrate(step, Rect((3,), (3,))) == 0.0


def test_integrate_alignment_and_bounds():
    lat = make_lattice(1, 3)
    w = lebesgue(lat)
    with pytest.raises(AlignmentError):
        rect_from_bounds(lat, (0.1,), (0.5,))
    with pytest.raises(DomainError):
        rect_from_bounds(lat, (0.0,), (1.25,))
    with pytest.raises(DomainError):
        integrate(w, Rect((0,), (9,)))
    with pytest.raises(ShapeError):
        integrate(w, Rect((0, 0), (4, 4)))


def test_power_integrate():
    lat = make_lattice(1, 4)
    step = Weight(lat, [2.0] * 8 + [0.0] * 8)
    # 2^2 * (1/2) = 2, computed by naive summation
    assert power_integrate(step, full_rect(lat), 2.0) == 2.0
    w = lebesgue(lat)
    r = rect_from_bounds(lat, (0.25,), (0.75,))
    assert power_integrate(w, r, 3.5) == 0.5
    zero = Weight(lat, np.zeros(16))
    assert power_integrate(zero, full_rect(lat), 2.0) == 0.0


def test_lp_norm():
    lat2 = make_lattice(2, 3)
    one = GridFunction(lat2, np.ones(lat2.shape))
    assert lp_norm(one, lebesgue(lat2), 2.0) == 1.0

    lat = make_lattice(1, 4)
    ind = GridFunction(lat, [1.0] * 8 + [0.0] * 8)
    got = lp_norm(ind, lebesgue(lat), 2.0)
    assert math.isclose(got, math.sqrt(0.5), rel_tol=1e-15)

    w = Weight(lat, np.linspace(0.5, 2.0, 16))
    naive = float(np.sum(ind.values * w.density) / 16)
    assert math.isclose(lp_norm(ind, w, 1.0), naive, rel_tol=1e-15)

    with pytest.raises(ShapeError):
        lp_norm(one, lebesgue(lat), 2.0)
    with pytest.raises(DomainError):
        lp_norm(ind, lebesgue(lat), 0.5)


def test_gen_weight_power_centers():
    lat = make_lattice(1, 2)
    w = gen_weight(lat, {"kind": "power", "exponent": 1.0, "center": 0.5})
    np.testing.assert_array_equal(w.density, [0.375, 0.125, 0.125, 0.375])


def test_gen_weight_constant_and_halfspace():
    lat = make_lattice(1, 3)
    w = gen_weight(lat, {"kind": "constant", "value": 1.0})
    np.testing.assert_array_equal(w.density, np.ones(8))
    h = gen_weight(lat, {"kind": "halfspace_cutoff"})
    np.testing.assert_array_equal(h.density, [0, 0, 0, 0, 1, 1, 1, 1])
    lat2 = make_lattice(2, 2)
    h2 = gen_weight(lat2, {"kind": "halfspace_cutoff", "base": {"kind": "constant", "value": 3.0}})
    assert h2.density[0, 0] == 0.0
    assert h2.density[3, 1] == 0.0
    assert h2.density[2, 2] == 3.0


def test_gen_weight_determinism():
    lat = make_lattice(2, 4)
    for spec in (
        {"kind": "random_lognormal", "seed": 7, "roughness": 0.8},
        {"kind": "cascade", "beta": 0.7, "seed": 7},
    ):
        a = gen_weight(lat, spec)
        b = gen_weight(lat, spec)
        np.testing.assert_array_equal(a.density, b.density)
        other = gen_weight(lat, {**spec, "seed": 8})
        assert not np.array_equal(a.density, other.density)


def test_gen_weight_errors():
    lat = make_lattice(1, 3)
    with pytest.raises(DomainError):
        gen_weight(lat, {"kind": "power", "exponent": -1.0})
    with pytest.raises(DomainError):
        gen_weight(lat, {"kind": "nope"})
    with pytest.raises(DomainError):
        gen_weight(lat, {"kind": "cascade", "beta": 1.0})
    with pytest.raises(DomainError):
        gen_weight(lat, {"kind": "constant", "value": -2.0})


def test_cascade_unit_mass():
    lat = make_lattice(2, 5)
    w = gen_weight(lat, {"kind": "cascade", "beta": 0.8, "seed": 3})
    assert math.isclose(w.total_mass(), 1.0, rel_tol=1e-12)


def test_prefix_matches_naive_on_random_rectangles():
    rng = substream(424242, 1)
    for dim, depth in ((1, 10), (2, 5)):
        lat = make_lattice(dim, depth)
        w = gen_weight(lat, {"kind": "random_lognormal", "seed": 5, "roughness": 1.0})
        n = lat.cells_per_axis
        for _ in range(500):
            lo = tuple(int(v) for v in rng.integers(0, n, size=dim))
            hi = tuple(int(rng.integers(a, n + 1)) for a in lo)
            sl = tuple(slice(a, b) for a, b in zip(lo, hi))
            naive = float(np.sum(w.density[sl], dtype=np.float64) * lat.cell_volume)
            got = integrate(w, Rect(lo, hi))
            assert math.isclose(got, naive, rel_tol=1e-12, abs_tol=1e-300)


def test_integrate_additive_over_disjoint_split():
    lat = make_lattice(2, 4)
    w = gen_weight(lat, {"kind": "random_lognormal", "seed": 9, "roughness": 1.5})
    n = lat.cells_per_axis
    whole = integrate(w, full_rect(lat))
    for cut in (1, 5, 8, 13):
        left = integrate(w, Rect((0, 0), (cut, n)))
        right = integrate(w, Rect((cut, 0), (n, n)))
        assert math.isclose(left + right, whole, rel_tol=1e-12)


def test_box_mass_fractional():
    lat = make_lattice(1, 5)
    assert math.isclose(box_mass(lebesgue(lat), (0.3,), (0.45,)), 0.15, rel_tol=1e-12)
    lat2 = make_lattice(1, 2)
    w = Weight(lat2, [4.0, 2.0, 1.0, 3.0])
    # 4/8 + 2/4 + 1/8 summed by hand
    assert math.isclose(box_mass(w, (0.125,), (0.625,)), 1.125, rel_tol=1e-14)
    # clipping outside the unit box
    assert math.isclose(box_mass(w, (-1.0,), (0.25,)), 1.0, rel_tol=1e-14)


def test_box_masses_reads_leading_axes_as_a_batch():
    # a stack of tables gives every table its own masses bit for bit, on
    # whole-cell and fractional edges, and so does the exact-zero rule
    lat = make_lattice(2, 3)
    dens = np.stack([
        gen_weight(lat, {"kind": "random_lognormal", "seed": s, "roughness": 0.9}).density
        for s in range(3)
    ])
    dens[1, 2:5, 1:4] = 0.0
    weights = [Weight(lat, d) for d in dens]
    tabs = np.stack([w.prefix(1.5) for w in weights])
    counts = _positive_counts(lat, dens)
    whole = tile_edges((0, 0), (8, 8), (2, 4))
    frac = (
        [np.array([0.0, 1 / 3, 2.5, 2.0]), np.array([1 / 3, 0.0, 1.5, 2.5])],
        [np.array([2.0, 4 / 3, 5.0, 4.0]), np.array([8.0, 3.5, 3.0, 3.5])],
    )
    for lo, hi in (whole, frac, ((2, 1), (5, 4))):
        got, got_zero = box_masses(tabs, lo, hi), _masses(tabs, counts, lo, hi)
        for k, w in enumerate(weights):
            assert np.all(got[k] == box_masses(w.prefix(1.5), lo, hi))
            assert np.all(got_zero[k] == _weight_masses(w, lo, hi, 1.5))
    assert got_zero[1] == 0.0 and got_zero[0] > 0.0


@st.composite
def _boxes_on_thirds(draw):
    """A lattice, a density seed and a list of boxes whose edges sit on
    multiples of 1/(3 * 2^L), reaching half a box outside [0, 1] on every
    side.  Each axis is either whole cells (int edges) or thirds of a cell
    (float edges, some of which land on whole cells anyway)."""
    dim = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 3))
    count = draw(st.integers(1, 6))
    n = 1 << depth
    axes = []
    for _ in range(dim):
        unit = draw(st.sampled_from((1, 3)))
        tick = st.integers(-(unit * n) // 2, (3 * unit * n) // 2)
        pairs = draw(st.lists(st.tuples(tick, tick), min_size=count, max_size=count))
        axes.append((unit, [min(p) for p in pairs], [max(p) for p in pairs]))
    return dim, depth, draw(st.integers(0, 2**32 - 1)), axes


@settings(max_examples=150, deadline=None)
@given(_boxes_on_thirds())
def test_box_masses_match_exact_fraction_integral(case):
    dim, depth, seed, axes = case
    lat = make_lattice(dim, depth)
    rng = np.random.default_rng(seed)
    dens = np.where(rng.uniform(size=lat.shape) < 0.1, 0.0, rng.uniform(0.25, 4.0, lat.shape))
    w = Weight(lat, dens)
    lo = [np.array(a) if unit == 1 else np.array(a) / 3.0 for unit, a, _ in axes]
    hi = [np.array(b) if unit == 1 else np.array(b) / 3.0 for unit, _, b in axes]
    got = box_masses(w.prefix(1.0), lo, hi).astype(np.float64)

    n = lat.cells_per_axis
    cell_vol = Fraction(1, n**dim)
    total = float(sum(Fraction(float(u)) for u in dens.ravel()) * cell_vol)
    for row in range(len(got)):
        # overlap of the box with each cell, axis by axis, in cell units
        overlaps = []
        for unit, a, b in axes:
            lo_k, hi_k = Fraction(a[row], unit), Fraction(b[row], unit)
            overlaps.append(
                [max(Fraction(0), min(hi_k, c + 1) - max(lo_k, Fraction(c))) for c in range(n)]
            )
        exact = Fraction(0)
        for cell in np.ndindex(*lat.shape):
            part = Fraction(float(dens[cell]))
            for k, c in enumerate(cell):
                part *= overlaps[k][c]
            exact += part
        exact = float(exact * cell_vol)
        # a box of exact mass 0 (clipped empty, or on zero-density cells) can
        # read a corner-sum residual of a few ulps of the total mass, hence
        # the floor under the relative scale
        assert abs(got[row] - exact) <= 1e-12 * max(exact, 1e-6 * total), (row, exact)


def test_doubling_lebesgue_is_two_to_the_d():
    rep1 = doubling_report(lebesgue(make_lattice(1, 4)), "cube")
    assert rep1.constant == 2.0
    assert not rep1.infinite
    rep2 = doubling_report(lebesgue(make_lattice(2, 3)), "cube")
    assert rep2.constant == 4.0
    rep3 = doubling_report(lebesgue(make_lattice(2, 3)), "rectangle")
    assert rep3.constant == 4.0


def test_doubling_halfspace_flags_infinite():
    lat = make_lattice(1, 5)
    h = gen_weight(lat, {"kind": "halfspace_cutoff"})
    rep = doubling_report(h, "rectangle")
    assert rep.infinite
    wit = rep.witnesses["doubling"]
    # witness interval hugs the cutoff from the left
    assert wit.rect == Rect((14,), (16,))
    assert wit.reevaluate(h) == math.inf
    assert doubling_report(h, "cube").infinite


def test_product_reverse_halfspace_exact_decay():
    lat = make_lattice(1, 6)
    h = gen_weight(lat, {"kind": "halfspace_cutoff"})
    rep = doubling_report(h, "product_reverse")
    assert rep.rev_C == 1.0
    assert rep.rev_eps == (1.0,)
    assert rep.rev_eps_cube == 1.0
    assert rep.passes_reverse
    for (kind, *rest), ratio in rep.per_scale.items():
        s = rest[-1]
        assert ratio == 2.0 ** -s
    wit = rep.witnesses["reverse_axis_0"]
    assert wit.reevaluate(h) == wit.value


def test_product_reverse_lebesgue_2d():
    rep = doubling_report(lebesgue(make_lattice(2, 4)), "product_reverse")
    assert rep.rev_eps == (1.0, 1.0)
    assert rep.rev_eps_cube == 2.0


def test_strong_scan_lebesgue_and_halfspace():
    rep = doubling_report(lebesgue(make_lattice(1, 4)), "strong")
    assert rep.strong_beta == 0.5
    assert not rep.strong_absent
    h = gen_weight(make_lattice(1, 4), {"kind": "halfspace_cutoff"})
    rep_h = doubling_report(h, "strong")
    assert rep_h.strong_absent
    assert rep_h.strong_beta is None


def test_strong_witness_reevaluates_exactly():
    lat = make_lattice(1, 6)
    w = gen_weight(lat, {"kind": "cascade", "beta": 0.75, "seed": 11})
    rep = doubling_report(w, "strong")
    assert not rep.strong_absent
    wit = rep.witnesses["strong"]
    assert wit.reevaluate(w) == rep.strong_beta


def test_doubling_witness_reevaluates_exactly():
    lat = make_lattice(1, 6)
    w = gen_weight(lat, {"kind": "random_lognormal", "seed": 2, "roughness": 1.2})
    rep = doubling_report(w, "cube")
    assert rep.witnesses["doubling"].reevaluate(w) == rep.constant
    rev = doubling_report(w, "product_reverse")
    for key, wit in rev.witnesses.items():
        assert wit.reevaluate(w) == wit.value


@pytest.mark.parametrize("seed, block", [(38, (20, 21)), (4, (17, 22))])
def test_zero_block_has_exactly_zero_mass(seed, block):
    # the corner sum of nonzero prefix values left a residual of +-5.42e-20
    # on this 2x2 block of zero cells, so the cube scan read a finite ratio
    rng = np.random.default_rng(seed)
    dens = np.exp(0.6 * rng.standard_normal((32, 32)))
    i, j = (int(v) for v in rng.integers(1, 30, size=2))
    assert (i, j) == block
    dens[i : i + 2, j : j + 2] = 0.0
    w = Weight(make_lattice(2, 5), dens)
    empty = Rect((i, j), (i + 2, j + 2))
    assert integrate(w, empty) == 0.0
    assert power_integrate(w, empty, 1.5) == 0.0
    # boxes holding a positive cell keep the engine's value bit for bit
    full = Rect((i - 1, j), (i + 2, j + 2))
    assert integrate(w, full) == float(box_masses(w.prefix(1.0), full.lo, full.hi))
    for mode in ("cube", "rectangle"):
        rep = doubling_report(w, mode)
        assert rep.infinite and rep.constant == INFINITE
        assert rep.witnesses["doubling"].reevaluate(w) == math.inf


def test_strong_rd_doubling_bound_frozen_table():
    # exact values, big-integer oracle
    assert strong_rd_doubling_bound(0.5).as_tuple() == (3, 4 / 3, 3, 8)
    assert strong_rd_doubling_bound(0.6).as_tuple() == (3, 4 / 3, 3, 8)
    assert strong_rd_doubling_bound(0.75).as_tuple() == (5, 16 / 15, 11, 2048)
    b = strong_rd_doubling_bound(0.9)
    assert b.n_steps == 14
    assert b.gamma == 8192 / 8191
    assert b.m_steps == 5678
    assert b.doubling_constant == 2**5678
    assert strong_rd_doubling_bound(0.1).as_tuple() == (2, 2.0, 1, 2)
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(DomainError):
            strong_rd_doubling_bound(bad)


def test_strong_bound_dominates_measured_doubling():
    cases = [
        (make_lattice(1, 6), {"kind": "cascade", "beta": 0.7, "seed": s}) for s in range(4)
    ]
    cases += [
        (make_lattice(2, 4), {"kind": "random_lognormal", "seed": 21, "roughness": 0.35}),
        (make_lattice(2, 4), {"kind": "checkerboard", "levels": 2}),
    ]
    for lat, spec in cases:
        w = gen_weight(lat, spec)
        rep = doubling_report(w, "strong")
        assert not rep.strong_absent, spec
        bound = strong_rd_doubling_bound(rep.strong_beta)
        measured = doubling_report(w, "rectangle")
        assert not measured.infinite
        # float <= int compares exactly; the bound may be a very large integer
        assert measured.constant <= bound.doubling_constant


def test_strong_bound_refuses_explosive_beta():
    # a rough lognormal measures a half-fraction near 1, where the cover
    # exponent is around ln2 * 2^52; building that integer is impossible
    lat = make_lattice(2, 4)
    w = gen_weight(lat, {"kind": "random_lognormal", "seed": 21, "roughness": 0.9})
    rep = doubling_report(w, "strong")
    assert rep.strong_beta > 0.95
    with pytest.raises(ResourceError, match="budget"):
        strong_rd_doubling_bound(rep.strong_beta)
    with pytest.raises(ResourceError):
        strong_rd_doubling_bound(0.999)


def test_doubling_report_validation():
    lat = make_lattice(1, 1)
    with pytest.raises(DomainError):
        doubling_report(lebesgue(lat), "cube")
    with pytest.raises(DomainError):
        doubling_report(lebesgue(make_lattice(1, 3)), "sideways")


def test_weight_validation():
    lat = make_lattice(1, 2)
    with pytest.raises(DomainError):
        Weight(lat, [1.0, -0.5, 0.0, 1.0])
    with pytest.raises(DomainError):
        Weight(lat, [1.0, float("nan"), 0.0, 1.0])
    with pytest.raises(ShapeError):
        Weight(lat, [1.0, 2.0])


def test_wgt1_roundtrip(tmp_path):
    lat = make_lattice(2, 3)
    w = gen_weight(lat, {"kind": "random_lognormal", "seed": 13, "roughness": 1.0})
    path = tmp_path / "w.wgt"
    write_weight(path, w)
    back = read_weight(path)
    assert back.lattice == lat
    np.testing.assert_array_equal(back.density, w.density)
    header = path.read_text().splitlines()[0]
    assert header == "WGT1 d=2 L=3"


def test_wgt1_errors(tmp_path):
    bad_magic = tmp_path / "a.wgt"
    bad_magic.write_text("NOPE d=1 L=1\n1 1\n")
    with pytest.raises(FormatError, match="line 1"):
        read_weight(bad_magic)

    short = tmp_path / "b.wgt"
    short.write_text("WGT1 d=1 L=2\n1 2 3\n")
    with pytest.raises(FormatError, match="expected 4 values"):
        read_weight(short)

    token = tmp_path / "c.wgt"
    token.write_text("WGT1 d=1 L=1\n1 zz\n")
    with pytest.raises(FormatError, match="line 2"):
        read_weight(token)

    overlong = tmp_path / "d.wgt"
    overlong.write_text("WGT1 d=1 L=1\n1 2 3 4 5\n")
    with pytest.raises(FormatError, match="more than"):
        read_weight(overlong)

    huge = tmp_path / "e.wgt"
    huge.write_text("WGT1 d=2 L=14\n")
    with pytest.raises(ResourceError):
        read_weight(huge)

    for header in ("WGT1 d=9 L=1", "WGT1 d=1 L=-2", "WGT1 d=0 L=3"):
        ranged = tmp_path / "f.wgt"
        ranged.write_text(header + "\n1 1\n")
        with pytest.raises(FormatError, match="line 1"):
            read_weight(ranged)


_DENSITY = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wgt1_roundtrip_random_weights(data):
    dim = data.draw(st.integers(1, 2))
    depth = data.draw(st.integers(0, 4 if dim == 1 else 3))
    lat = make_lattice(dim, depth)
    dens = data.draw(st.lists(_DENSITY, min_size=lat.cell_count, max_size=lat.cell_count))
    w = Weight(lat, np.array(dens))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.wgt"
        write_weight(path, w)
        back = read_weight(path)
    assert back.lattice == lat
    np.testing.assert_array_equal(back.density, w.density)
