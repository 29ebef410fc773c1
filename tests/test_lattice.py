"""Lattice core: exact integration, generators, doubling scans, WGT1 files.

Numeric oracle values asserted here were computed independently (naive
summation, closed forms, exact big-integer arithmetic) before the
implementation existed.
"""
import math
import tempfile
from fractions import Fraction
from itertools import product as iproduct
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
)
from dyadlab import lattice
from dyadlab.lattice import (
    _masses,
    _positive_counts,
    _weight_masses,
)
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


@pytest.mark.parametrize("p", [math.inf, math.nan, -math.inf, 0.5])
def test_lp_norm_refuses_p_outside_one_to_inf(p):
    # p = inf summed f^inf, 4.0 for f = 2 where the L^inf norm is 2, and
    # p = nan returned nan
    lat = make_lattice(2, 4)
    w = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": 1})
    with pytest.raises(DomainError, match="p must be finite and >= 1"):
        lp_norm(GridFunction(lat, np.full(lat.shape, 2.0)), w, p)


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


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "cascade", "beta": 0.7}, "seed"),
        ({"kind": "random_lognormal"}, "seed"),
        ({"kind": "checkerboard"}, "levels"),
    ],
)
def test_gen_weight_refuses_a_fractional_integer_field(spec, field):
    # an integer field is read by substream's rule, not truncated
    lat = make_lattice(1, 3)
    with pytest.raises(DomainError, match="unusable value 1.5"):
        gen_weight(lat, {**spec, field: 1.5})
    np.testing.assert_array_equal(
        gen_weight(lat, {**spec, field: 1.0}).density, gen_weight(lat, {**spec, field: 1}).density
    )


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"kind": "constant", "valu": 2.0}, "valu"),
        ({"kind": "cascade", "beta": 0.7, "roughness": 0.5}, "roughness"),
        ({"kind": "halfspace_cutoff", "base": {"kind": "constant", "levels": 1}}, "levels"),
    ],
)
def test_gen_weight_refuses_an_unknown_field(spec, field):
    with pytest.raises(DomainError, match=repr(field)):
        gen_weight(make_lattice(1, 3), spec)


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
    assert box_mass(w, (-math.inf,), (math.inf,)) == 2.5


@pytest.mark.parametrize(
    "lo, hi, error",
    [
        ((math.nan, 0.0), (0.5, 0.5), DomainError),
        ((0.0, 0.25), (0.5, math.nan), DomainError),
        ((0.0,), (0.5,), ShapeError),
        ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), ShapeError),
    ],
    ids=["nan-lower", "nan-upper", "one-pair", "three-pairs"],
)
def test_box_mass_refuses_nan_edges_and_wrong_edge_counts(lo, hi, error):
    w = gen_weight(make_lattice(2, 3), {"kind": "random_lognormal", "seed": 1, "roughness": 0.5})
    with pytest.raises(error):
        box_mass(w, lo, hi)


def test_box_masses_reads_leading_axes_as_a_batch():
    # a stack of tables gives every table its own masses bit for bit, and
    # so does the exact-zero rule
    lat = make_lattice(2, 3)
    dens = np.stack([
        gen_weight(lat, {"kind": "random_lognormal", "seed": s, "roughness": 0.9}).density
        for s in range(3)
    ])
    dens[1, 2:5, 1:4] = 0.0
    weights = [Weight(lat, d) for d in dens]
    tabs = np.stack([w.prefix(1.5) for w in weights])
    counts = _positive_counts(lat, dens)
    whole = (list(np.ix_(np.arange(0, 8, 2), np.arange(0, 8, 4))),
             list(np.ix_(np.arange(2, 10, 2), np.arange(4, 12, 4))))
    for lo, hi in (whole, ((2, 1), (5, 4))):
        got, got_zero = box_masses(tabs, lo, hi), _masses(tabs, counts, lo, hi)
        for k, w in enumerate(weights):
            assert np.all(got[k] == box_masses(w.prefix(1.5), lo, hi))
            assert np.all(got_zero[k] == _masses(w.prefix(1.5), _positive_counts(lat, w.density), lo, hi))
    assert got_zero[1] == 0.0 and got_zero[0] > 0.0


def test_prefix_keeps_only_the_theta_one_table():
    # the doubling scans read only the theta = 1 table; any other theta is
    # built on each call, with the same bits, and not kept by the weight
    w = gen_weight(make_lattice(2, 3), {"kind": "random_lognormal", "seed": 4, "roughness": 0.9})
    first = w.prefix(1.5)
    assert w._prefix is None
    again = w.prefix(1.5)
    assert again is not first and np.array_equal(again, first)
    assert w._prefix is None
    one = w.prefix()
    assert w.prefix(1.0) is one is w._prefix
    assert not np.array_equal(one, first)


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
def test_box_mass_matches_exact_fraction_integral(case):
    dim, depth, seed, axes = case
    lat = make_lattice(dim, depth)
    rng = np.random.default_rng(seed)
    dens = np.where(rng.uniform(size=lat.shape) < 0.1, 0.0, rng.uniform(0.25, 4.0, lat.shape))
    w = Weight(lat, dens)
    n = lat.cells_per_axis
    count = len(axes[0][1])
    got = [
        box_mass(w, [a[row] / unit / n for unit, a, _ in axes], [b[row] / unit / n for unit, _, b in axes])
        for row in range(count)
    ]

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
        # the floor under the relative scale is the former prefix engine's,
        # whose corner sums left a residual of a few ulps of the total mass
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


def _reverse_weight(lat, kind):
    if kind == "zero_block":
        # a lognormal weight with a block of zero cells, a quarter of the
        # box per axis, off the origin
        w = gen_weight(lat, {"kind": "random_lognormal", "seed": 8, "roughness": 0.7})
        dens = np.array(w.density)
        q = lat.cells_per_axis // 4
        dens[(slice(q, 2 * q),) * lat.dim] = 0.0
        return Weight(lat, dens)
    specs = {
        "cascade_07": {"kind": "cascade", "beta": 0.7, "seed": 5},
        "cascade_09": {"kind": "cascade", "beta": 0.9, "seed": 6},
        "lognormal": {"kind": "random_lognormal", "seed": 7, "roughness": 1.1},
        "halfspace": {"kind": "halfspace_cutoff"},
    }
    return gen_weight(lat, specs[kind])


def _reverse_oracle(w):
    """The product-reverse scan by brute force: per tested key, the first
    maximum of fl(fsum(inner) / fsum(tile)) over tiles of positive mass in
    level-tuple product order, then C order, with its boxes."""
    lat = w.lattice
    depth, dim, n = lat.depth, lat.dim, lat.cells_per_axis
    cells = w.density * lat.cell_volume

    def mass(lo, hi):
        return math.fsum(cells[tuple(map(slice, lo, hi))].ravel().tolist())

    best = {}
    for levels in iproduct(range(depth + 1), repeat=dim):
        sides = [n >> lv for lv in levels]
        keys = [(("axis", k, s), (k,)) for k in range(dim) for s in range(1, depth - levels[k])]
        if len(set(levels)) == 1:
            keys += [(("cube", s), range(dim)) for s in range(1, depth - levels[0])]
        for idx in np.ndindex(*[1 << lv for lv in levels]):
            lo = [i * side for i, side in zip(idx, sides)]
            hi = [a + side for a, side in zip(lo, sides)]
            tile = mass(lo, hi)
            if tile <= 0.0:
                continue
            for key, axes in keys:
                s, ilo, ihi = key[-1], list(lo), list(hi)
                for k in axes:
                    ilo[k] += (sides[k] - (sides[k] >> s)) // 2
                    ihi[k] = ilo[k] + (sides[k] >> s)
                r = mass(ilo, ihi) / tile
                if key not in best or r > best[key][0]:
                    best[key] = (r, Rect(tuple(lo), tuple(hi)), Rect(tuple(ilo), tuple(ihi)))
    return best


def _decay(ratios: dict):
    """(exponent, s) of the worst decay over the scales' ratios, the
    exponent clamped at 0; (0.0, None) when no ratio is positive."""
    eps, at = math.inf, None
    for s, r in sorted(ratios.items()):
        if r > 0.0 and -math.log2(r) / s < eps:
            eps, at = -math.log2(r) / s, s
    return (0.0, None) if at is None else (max(eps, 0.0), at)


@pytest.mark.parametrize("dim, depth", [(1, 6), (2, 4), (3, 2)])
@pytest.mark.parametrize("kind", ["cascade_07", "cascade_09", "lognormal", "halfspace", "zero_block"])
def test_product_reverse_matches_brute_force(dim, depth, kind):
    w = _reverse_weight(make_lattice(dim, depth), kind)
    rep = doubling_report(w, "product_reverse")
    oracle = _reverse_oracle(w)
    assert rep.per_scale == {key: r for key, (r, *_) in oracle.items()}
    per_key = {}
    for key, r in rep.per_scale.items():
        per_key.setdefault(key[:-1], {})[key[-1]] = r
    names = [("reverse_axis_%d" % k, ("axis", k)) for k in range(dim)] + [("reverse_cube", ("cube",))]
    for k, (name, key) in enumerate(names):
        eps, s = _decay(per_key.get(key, {}))
        assert (rep.rev_eps_cube if key == ("cube",) else rep.rev_eps[k]) == eps
        if s is None:
            assert name not in rep.witnesses
            continue
        wit = rep.witnesses[name]
        r, tile, inner = oracle[key + (s,)]
        assert (wit.kind, wit.shrink, wit.value, wit.rect, wit.other) == ("shrink", s, r, tile, inner)
        assert wit.reevaluate(w) == wit.value


@pytest.mark.parametrize("dim, depth", [(1, 6), (2, 4), (3, 2)])
def test_massless_weight_through_every_mode(dim, depth):
    # no box has mass, so no ratio counts and no scan names a witness
    w = Weight(make_lattice(dim, depth), np.zeros((1 << depth,) * dim))
    for mode in ("cube", "rectangle"):
        rep = doubling_report(w, mode)
        assert rep.constant == 0.0 and not rep.infinite and rep.witnesses == {}
    rep = doubling_report(w, "strong")
    assert rep.strong_absent and rep.strong_beta is None and rep.witnesses == {}
    rep = doubling_report(w, "product_reverse")
    assert rep.rev_eps == (0.0,) * dim and rep.rev_eps_cube == 0.0
    assert rep.per_scale == {} and rep.witnesses == {}
    assert not rep.passes_reverse


def test_product_reverse_reads_no_prefix_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the product-reverse scan read the prefix engine")

    monkeypatch.setattr(lattice, "box_masses", refuse)
    for dim, depth in [(1, 6), (2, 4), (3, 3)]:
        w = _reverse_weight(make_lattice(dim, depth), "cascade_09")
        rep = doubling_report(w, "product_reverse")
        assert rep.witnesses
        for wit in rep.witnesses.values():
            assert wit.reevaluate(w) == wit.value
        assert w._prefix is None
    # a shrink witness's boxes are 2^k cells wide on every axis
    w = _reverse_weight(make_lattice(2, 4), "lognormal")
    bad = [(Rect((0, 0), (3, 4)), ShapeError), (Rect((0, 4), (4, 4)), ShapeError), (Rect((0, 0), (4, 32)), DomainError)]
    for other, error in bad:
        with pytest.raises(error):
            lattice.Witness("shrink", Rect((0, 0), (4, 4)), other, None, 1, 0.5).reevaluate(w)


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
    # a box holding a positive cell reads its cells' mass, within an ulp
    full = Rect((i - 1, j), (i + 2, j + 2))
    want = math.fsum((dens[i - 1 : i + 2, j : j + 2] * 2.0**-10).ravel().tolist())
    assert 0.0 < want and abs(integrate(w, full) - want) <= np.spacing(want)
    for mode in ("cube", "rectangle"):
        rep = doubling_report(w, mode)
        assert rep.infinite and rep.constant == INFINITE
        assert rep.witnesses["doubling"].reevaluate(w) == math.inf


@pytest.mark.parametrize("dim, depth", [(1, 6), (2, 4), (3, 2)])
def test_every_even_placement_reads_its_fsum_mass(dim, depth):
    # the pair table's corner sums are correctly rounded: every placement
    # of every even-sided box reads the math.fsum of its cells, on a
    # high-contrast weight with a zero block, whose boxes read exactly 0
    lat = make_lattice(dim, depth)
    n = lat.cells_per_axis
    dens = np.exp(1.5 * substream(dim, 9700).standard_normal(lat.shape))
    q = n // 4
    dens[(slice(q, q + max(q, 2)),) * dim] = 0.0
    w = Weight(lat, dens)
    cells = lattice._cellwise(lat, w.density)
    zeros = 0
    for sizes in iproduct(range(2, n + 1, 2), repeat=dim):
        lo = list(np.ix_(*(np.arange(n - m + 1) for m in sizes)))
        got = _weight_masses(w, lo, [a + m for a, m in zip(lo, sizes)])
        for idx in np.ndindex(*got.shape):
            box = cells[tuple(slice(i, i + m) for i, m in zip(idx, sizes))]
            want = math.fsum(box.ravel().tolist())
            assert got[idx] == want, (sizes, idx)
            zeros += want == 0.0
    assert zeros > 0


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
    for mode in (["cube"], {"cube": 1}):
        with pytest.raises(DomainError, match="unknown doubling mode"):
            doubling_report(lebesgue(make_lattice(1, 3)), mode)


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


# ---------------------------------------------------------------------------
# box reads against the former per-corner gather
#
# The former box_masses on whole-cell edges, kept as the reference: every
# corner of every box gathered from the pair table, edges clipped to [0,
# n], the corners added one at a time by TwoSum, their errors carried,
# and rounded once.  The engine's reads must give the same bits.

_FORMER_CORNERS = {
    d: [(c, -1.0 if (d - sum(c)) % 2 else 1.0) for c in iproduct((0, 1), repeat=d)]
    for d in range(1, 5)
}


def _former_box_masses(tab: np.ndarray, lo, hi) -> np.ndarray:
    n = tab.shape[-1] - 1
    ends = [tuple(np.minimum(np.maximum(np.asarray(e), 0), n) for e in pair) for pair in zip(lo, hi)]
    out = err = None
    for corners, sign in _FORMER_CORNERS[len(lo)]:
        at = tuple(end[c] for end, c in zip(ends, corners))
        x, y = sign * tab[(..., 0, *at)], sign * tab[(..., 1, *at)]
        if out is None:
            out, err = x, y
            continue
        total = out + x
        z = total - out
        err = ((out - (total - z)) + (x - z)) + (err + y)
        out = total
    return out + err


def _former_masses(tab, count, lo, hi):
    """The former exact-zero rule: 0 where the box counts no positive cell."""
    masses = _former_box_masses(tab, lo, hi)
    if count is not None:
        masses = np.where(_former_box_masses(count, lo, hi) == 0, 0.0, masses)
    return masses


@st.composite
def _family_axes(draw, n: int):
    """One axis of a scan family, (count, lo, hi), and the lower and upper
    edges of its boxes, clipped, built apart: placements of any side, the
    doubles of an even side, clipped at both ends, and a strong scan's
    halves of an even side."""
    kind = draw(st.sampled_from(["placements", "doubles", "left", "right"]))
    m = draw(st.integers(1, n)) if kind == "placements" else 2 * draw(st.integers(1, n // 2))
    a = np.arange(n - m + 1)
    if kind == "placements":
        return lattice._placements(n, (m,))[0], a, a + m
    if kind == "doubles":
        return lattice._doubles(n, (m,))[0], np.maximum(a - m // 2, 0), np.minimum(a + m + m // 2, n)
    if kind == "left":
        return (a.size, 0, m // 2), a, a + m // 2
    return (a.size, m // 2, m), a + m // 2, a + m


@st.composite
def _family_cases(draw):
    dim = draw(st.integers(1, 4))
    depth = draw(st.integers(1, {1: 5, 2: 4, 3: 3, 4: 2}[dim]))
    axes = [draw(_family_axes(1 << depth)) for _ in range(dim)]
    return dim, depth, axes, draw(st.integers(0, 2)), draw(st.integers(0, 2**32 - 1))


def _tables(dim, depth, batch, seed):
    """Prefix tables of random weights with zero blocks, batch stacked or
    single, with their positive-cell counts."""
    lat = make_lattice(dim, depth)
    rng = np.random.default_rng(seed)
    dens = rng.uniform(0.25, 4.0, (max(batch, 1),) + lat.shape)
    dens[rng.uniform(size=dens.shape) < 0.3] = 0.0
    if batch == 0:
        dens = dens[0]
    return lattice._accumulate(lat, lattice._cellwise(lat, dens, 1.5)), lattice._positive_counts(lat, dens)


@settings(max_examples=300, deadline=None)
@given(_family_cases())
def test_family_reads_match_references(case):
    # the screen differences a family's boxes as a clipped np.take does, and
    # the engine gathers the former per-corner masses of its clipped edges,
    # on random weights with zero cells and a zero block
    dim, depth, axes, batch, seed = case
    lat = make_lattice(dim, depth)
    n = lat.cells_per_axis
    rng = np.random.default_rng(seed)
    dens = rng.uniform(0.25, 4.0, (max(batch, 1),) + lat.shape)
    dens[rng.uniform(size=dens.shape) < 0.3] = 0.0
    side = int(rng.integers(1, n + 1))
    dens[(slice(None), *(slice(a, a + side) for a in rng.integers(0, n - side + 1, dim)))] = 0.0
    if batch == 0:
        dens = dens[0]
    tab, count = lattice._accumulate(lat, lattice._cellwise(lat, dens)), lattice._positive_counts(lat, dens)
    family = tuple(fam for fam, _, _ in axes)
    lo, hi = ([e[k] for e in axes] for k in (1, 2))

    flt = tab[(..., 0) + (slice(None),) * dim]
    want = flt
    for k in range(dim):
        at = want.ndim - dim + k
        want = np.take(want, hi[k], axis=at) - np.take(want, lo[k], axis=at)
    got = lattice._differences(flt, family)
    assert np.array_equal(got, want.reshape(want.shape[: want.ndim - dim] + (-1,)))

    # every box, and a random pick of them, as the engine gathers them
    size = math.prod(c for c, _, _ in family)
    every = np.arange(size)
    for flat in (every, np.sort(rng.choice(size, int(rng.integers(0, size + 1)), replace=False))):
        pos = np.unravel_index(flat, [c for c, _, _ in family])
        plo, phi = [e[p] for e, p in zip(lo, pos)], [e[p] for e, p in zip(hi, pos)]
        edges = lattice._edges(family, flat, n)
        assert all(np.array_equal(a, b) for a, b in zip(edges[0] + edges[1], plo + phi))
        want = _former_masses(tab, count, plo, phi)
        assert np.array_equal(_masses(tab, count, *edges), want)
        for k, d in enumerate(dens.reshape((-1,) + lat.shape)):
            read = lattice._engine(Weight(lat, d), [((family,), flat)])[0]
            row = want if batch == 0 else want[k]
            assert read.tobytes() == row.tobytes()
    # in C order: the whole family is the outer product of its axes
    want = _former_masses(tab, count, *(list(np.ix_(*e)) for e in (lo, hi)))
    full = _masses(tab, count, *lattice._edges(family, every, n))
    assert np.array_equal(full.reshape(want.shape), want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gathered_boxes_match_former_gather(data):
    # scalar boxes and zipped box lists of whole-cell edges keep the gather path
    dim = data.draw(st.integers(1, 4))
    depth = data.draw(st.integers(1, {1: 5, 2: 4, 3: 3, 4: 2}[dim]))
    n = 1 << depth
    tab, count = _tables(dim, depth, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2**32)))
    size = data.draw(st.sampled_from([0, 1, 4]))  # 0: one box of scalar edges
    ticks = max(size, 1)
    lo, hi = [], []
    for _ in range(dim):
        a = np.array(data.draw(st.lists(st.integers(0, n), min_size=ticks, max_size=ticks)))
        b = a + np.array(data.draw(st.lists(st.integers(0, n), min_size=ticks, max_size=ticks)))
        b = np.minimum(b, n)
        lo.append(a if size else a[0].item())
        hi.append(b if size else b[0].item())
    want = _former_box_masses(tab, lo, hi)
    assert np.array_equal(box_masses(tab, lo, hi), want)
    assert np.array_equal(_masses(tab, count, lo, hi), _former_masses(tab, count, lo, hi))


# The former cube and rectangle doubling scan, kept as the reference: every
# placement and its clipped double gathered corner by corner.


def _former_rect_at(lo, hi, flat: int) -> Rect:
    shape = np.broadcast_shapes(*(np.shape(e) for e in (*lo, *hi)))
    pos = np.unravel_index(flat, shape)
    return Rect(
        tuple(int(np.broadcast_to(e, shape)[pos]) for e in lo),
        tuple(int(np.broadcast_to(e, shape)[pos]) for e in hi),
    )


def _former_scan_doubling(w: Weight, per_axis_sizes: bool):
    lat = w.lattice
    n = lat.cells_per_axis
    count = lattice._positive_counts(lat, w.density)
    best = -1.0
    witness = None
    even = range(2, n + 1, 2)
    size_tuples = (
        iproduct(even, repeat=lat.dim) if per_axis_sizes else ((m,) * lat.dim for m in even)
    )
    for sizes in size_tuples:
        lo = list(np.ix_(*(np.arange(n - m + 1, dtype=np.int64) for m in sizes)))
        hi = [a + m for a, m in zip(lo, sizes)]
        dlo = [np.maximum(a - m // 2, 0) for a, m in zip(lo, sizes)]
        dhi = [np.minimum(b + m // 2, n) for b, m in zip(hi, sizes)]
        base = _former_masses(w.prefix(1.0), count, lo, hi).astype(np.float64)
        big = _former_masses(w.prefix(1.0), count, dlo, dhi).astype(np.float64)
        zero = base == 0.0
        inf_here = zero & (big > 0.0)
        if inf_here.any():
            i = int(np.argmax(inf_here))
            return INFINITE, True, (_former_rect_at(lo, hi, i), _former_rect_at(dlo, dhi, i))
        if (~zero).any():
            ratios = np.where(zero, -1.0, big / np.where(zero, 1.0, base))
            i = int(np.argmax(ratios))
            if float(ratios.flat[i]) > best:
                best = float(ratios.flat[i])
                witness = (_former_rect_at(lo, hi, i), _former_rect_at(dlo, dhi, i))
    return (best if best >= 0 else 0.0), False, witness


def _oracle_weight(lat, weight: str, seed: int) -> Weight:
    if weight == "lognormal":
        return gen_weight(lat, {"kind": "random_lognormal", "seed": seed, "roughness": 1.0})
    if weight == "cascade":
        return gen_weight(lat, {"kind": "cascade", "beta": 0.8, "seed": seed})
    if weight == "constant":
        return gen_weight(lat, {"kind": "constant", "value": 1.0})
    dens = np.random.default_rng(seed).uniform(0.5, 2.0, lat.shape)
    dens[np.random.default_rng(seed + 1).uniform(size=lat.shape) < 0.2] = 0.0
    return Weight(lat, dens)


def _assert_doubling_matches_former(w: Weight, modes=("cube", "rectangle")):
    for mode in modes:
        value, infinite, wit = _former_scan_doubling(w, mode == "rectangle")
        rep = doubling_report(w, mode)
        assert (rep.constant, rep.infinite) == (value, infinite)
        got = rep.witnesses.get("doubling")
        assert (None if got is None else (got.rect, got.other)) == wit
        if got is not None:
            assert got.value == value


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 2), (1, 5), (2, 2), (2, 4), (3, 2)]),
    st.sampled_from(["lognormal", "cascade", "zero_block", "constant"]),
    st.integers(0, 2**20),
)
def test_doubling_scans_match_former_scan(shape, weight, seed):
    _assert_doubling_matches_former(_oracle_weight(make_lattice(*shape), weight, seed))


# The former strong scan, kept as the reference: every placement of every
# axis-halved box and both of its halves gathered corner by corner.


def _former_scan_strong(w: Weight):
    lat = w.lattice
    n = lat.cells_per_axis
    count = lattice._positive_counts(lat, w.density)
    best = -1.0
    witness = None
    for axis in range(lat.dim):
        size_ranges = [
            range(2, n + 1, 2) if k == axis else range(1, n + 1) for k in range(lat.dim)
        ]
        for sizes in iproduct(*size_ranges):
            lo = list(np.ix_(*(np.arange(n - m + 1, dtype=np.int64) for m in sizes)))
            hi = [a + m for a, m in zip(lo, sizes)]
            base = _former_masses(w.prefix(1.0), count, lo, hi).astype(np.float64)
            ok = base > 0.0
            if not ok.any():
                continue
            half = sizes[axis] // 2
            mid = lo[axis] + half
            left_hi = hi[:axis] + [mid] + hi[axis + 1 :]
            right_lo = lo[:axis] + [mid] + lo[axis + 1 :]
            lm = _former_masses(w.prefix(1.0), count, lo, left_hi).astype(np.float64)
            rm = _former_masses(w.prefix(1.0), count, right_lo, hi).astype(np.float64)
            frac = np.where(ok, np.maximum(lm, rm) / np.where(ok, base, 1.0), -1.0)
            i = int(np.argmax(frac))
            if float(frac.flat[i]) > best:
                best = float(frac.flat[i])
                side = (
                    _former_rect_at(lo, left_hi, i)
                    if lm.flat[i] >= rm.flat[i]
                    else _former_rect_at(right_lo, hi, i)
                )
                witness = (_former_rect_at(lo, hi, i), side, axis)
    return best, witness


def _assert_strong_matches_former(w: Weight):
    best, wit = _former_scan_strong(w)
    rep = doubling_report(w, "strong")
    if best < 0.0:
        assert rep.strong_absent and rep.strong_beta is None and not rep.witnesses
        return
    got = rep.witnesses["strong"]
    assert (got.rect, got.other, got.axis, got.value) == (*wit, best)
    assert rep.strong_absent == (best >= 1.0)
    assert rep.strong_beta == (None if best >= 1.0 else best)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 2), (1, 5), (2, 2), (2, 3), (3, 2)]),
    st.sampled_from(["lognormal", "cascade", "zero_block", "constant"]),
    st.integers(0, 2**20),
)
def test_strong_scan_matches_former_scan(shape, weight, seed):
    _assert_strong_matches_former(_oracle_weight(make_lattice(*shape), weight, seed))


# The screened scans against the former loops on fixed inputs: deeper
# lattices, exact ties, ratios one ulp apart and massless placements.


@pytest.mark.parametrize("depth", [6, 7])
@pytest.mark.parametrize(
    "weight, seed", [("cascade", 3), ("cascade", 17), ("lognormal", 5), ("lognormal", 40)]
)
def test_cube_scan_matches_former_scan_at_depth(depth, weight, seed):
    w = _oracle_weight(make_lattice(2, depth), weight, seed)
    _assert_doubling_matches_former(w, ("cube",))


@pytest.mark.parametrize("shape", [(1, 5), (2, 4), (3, 2)])
def test_constant_weight_ties_keep_the_first_placement(shape):
    # every unclipped placement of every size has ratio exactly 2^d, so the
    # witness is the first of them: the size-2 box at cell 1 on every axis
    lat = make_lattice(*shape)
    w = gen_weight(lat, {"kind": "constant", "value": 1.0})
    _assert_doubling_matches_former(w)
    for mode in ("cube", "rectangle"):
        rep = doubling_report(w, mode)
        assert rep.constant == 2.0**lat.dim
        wit = rep.witnesses["doubling"]
        assert wit.rect == Rect((1,) * lat.dim, (3,) * lat.dim)
        assert wit.other == Rect((0,) * lat.dim, (4,) * lat.dim)
    _assert_strong_matches_former(w)


def _ulp_pair(later_wins: bool) -> Weight:
    """1D depth 3: the placements [1, 3) and [5, 7) have ratios x and
    x + ulp(x), x = 3 + 2^-51, the greater at [5, 7) when later_wins, and
    every mass exact in float64; every other placement's ratio is at most
    2."""
    x = 3.0 + 2.0**-51
    big, small = math.nextafter(x, math.inf) - 2.0, x - 2.0
    first, second = (small, big) if later_wins else (big, small)
    dens = [first, 0.5, 0.5, 1.0, second, 0.5, 0.5, 1.0]
    return Weight(make_lattice(1, 3), dens)


@pytest.mark.parametrize("later_wins", [True, False])
def test_ratios_one_ulp_apart_keep_the_greater(later_wins):
    w = _ulp_pair(later_wins)
    _assert_doubling_matches_former(w)
    rep = doubling_report(w, "cube")
    assert rep.constant == math.nextafter(3.0 + 2.0**-51, math.inf)
    assert rep.witnesses["doubling"].rect == (Rect((5,), (7,)) if later_wins else Rect((1,), (3,)))
    assert rep.witnesses["doubling"].reevaluate(w) == rep.constant


def _zero_block(lat, seed: int, side: int, at) -> Weight:
    dens = np.exp(0.6 * np.random.default_rng(seed).standard_normal(lat.shape))
    dens[tuple(slice(a, a + side) for a in at)] = 0.0
    return Weight(lat, dens)


@pytest.mark.parametrize("shape, side, at", [
    ((1, 6), 9, (20,)), ((2, 5), 5, (11, 3)), ((2, 5), 2, (0, 30)), ((3, 3), 3, (2, 0, 5)),
])
def test_zero_block_scans_match_former_scan(shape, side, at):
    # massless placements, some with massless doubles, take the exact path
    w = _zero_block(make_lattice(*shape), 7, side, at)
    _assert_doubling_matches_former(w)
    assert doubling_report(w, "cube").infinite
    _assert_strong_matches_former(w)


def _batch_weights(lat) -> list[Weight]:
    """Tied, massless and near-tied placements."""
    return [
        gen_weight(lat, {"kind": "checkerboard", "levels": 2}),
        _oracle_weight(lat, "constant", 0),
        _oracle_weight(lat, "zero_block", 8),
        _oracle_weight(lat, "cascade", 9),
        _zero_block(lat, 3, 2, (3,) * lat.dim),
    ]


@pytest.mark.parametrize("shape", [(1, 5), (2, 4)])
def test_small_engine_batches_keep_the_first_maximizer(monkeypatch, shape):
    # with a few boxes per batch the candidates of tied, massless and
    # near-tied placements are read over many batches, in scan order
    monkeypatch.setattr(lattice, "_BATCH", 3)
    for w in _batch_weights(make_lattice(*shape)):
        _assert_doubling_matches_former(w)
        _assert_strong_matches_former(w)


@pytest.mark.parametrize("shape", [(1, 5), (2, 4)])
def test_wide_blocks_keep_the_first_maximizer(monkeypatch, shape):
    # blocks of m // 2 placements engage from size 4 on, so the block pass
    # meets tied, massless and near-tied placements on most sizes
    monkeypatch.setattr(lattice, "_BLOCK", 2)
    for w in _batch_weights(make_lattice(*shape)):
        _assert_doubling_matches_former(w)


def _pass_sizes(families) -> tuple[tuple, tuple]:
    """The first and last size tuples of a block pass: its bases are the
    first's placements and its numerators the last's doubles."""
    return tuple(m for _, _, m in families[0]), tuple(-2 * lo for _, lo, _ in families[1])


def test_block_pass_skips_whole_sizes(monkeypatch):
    # on a positive weight the cube scan screens box by box only the sizes
    # of one placement per block (m < 2 _BLOCK) and those with a block
    # whose bound reaches L, every size from 2 _BLOCK on is covered by a
    # band pass or its own pass, every placement of a skipped size lies
    # below the constant, and the engine still reads one batch per role
    w = _oracle_weight(make_lattice(2, 6), "lognormal", 5)
    n = w.lattice.cells_per_axis
    differences, blocks, engine = lattice._differences, lattice._block_bounds, lattice._weight_masses
    screened, covered, bands, reads = set(), set(), [], []

    def spy_differences(tab, family):
        _, lo, hi, *step = family[0]
        if lo >= 0 and not step:  # the base family of a per-box screen
            screened.add(hi - lo)
        return differences(tab, family)

    def spy_blocks(flt, bound, families, steps):
        (first, _), (last, _) = _pass_sizes(families)
        covered.update(range(first, last + 1, 2))
        if last > first:
            bands.append((first, last))
        return blocks(flt, bound, families, steps)

    def spy_engine(w, lo, hi):
        reads.append(lo)
        return engine(w, lo, hi)

    monkeypatch.setattr(lattice, "_differences", spy_differences)
    monkeypatch.setattr(lattice, "_block_bounds", spy_blocks)
    monkeypatch.setattr(lattice, "_weight_masses", spy_engine)
    rep = doubling_report(w, "cube")
    monkeypatch.undo()
    _assert_doubling_matches_former(w, ("cube",))
    assert len(reads) == 2
    sizes = range(2, n + 1, 2)
    assert covered == {m for m in sizes if m >= 2 * lattice._BLOCK}
    assert bands
    assert {m for m in sizes if m < 2 * lattice._BLOCK} <= screened
    skipped = covered - screened
    assert skipped
    for m in skipped:
        families = (lattice._placements(n, (m,) * 2), lattice._doubles(n, (m,) * 2))
        every = np.arange((n - m + 1) ** 2)
        base, num = lattice._engine(w, [(families, every)])
        assert (num / base).max() < rep.constant


def test_bands_are_maximal_runs_of_growing_sides():
    # with every pass below L, each scan of the rectangle scan's order is
    # yielded, bounded alone or in one band; a band follows a skipped
    # scan, its sides never shrink and stay within _BAND of its first's,
    # and the scan after it breaks one of these
    n = 64
    order = list(iproduct(range(2, n + 1, 2), repeat=2))
    at = {s: k for k, s in enumerate(order)}
    passes = []

    def below(families, sides):
        first, last = _pass_sizes(families)
        assert list(sides) == list(first)
        passes.append((at[first], at[last]))
        return True

    scans = ((s, (lattice._placements(n, s), lattice._doubles(n, s))) for s in order)
    kept = [at[s] for s, _ in lattice._unskipped(scans, below)]
    seen = sorted(kept + [k for i, j in passes for k in range(i, j + 1)])
    assert seen == list(range(len(order)))
    assert all(max(order[k]) < 2 * lattice._BLOCK for k in kept)

    def joins(i, k):
        return all(a <= b <= f * lattice._BAND for a, b, f in zip(order[k - 1], order[k], order[i]))

    bands = [(i, j) for i, j in passes if j > i]
    assert len(bands) > 100
    for i, j in bands:
        assert i - 1 in {end for _, end in passes}
        assert all(joins(i, k) for k in range(i + 1, j + 1))
        assert j + 1 == len(order) or not joins(i, j + 1)


@pytest.mark.parametrize("block", [2, 8])
@pytest.mark.parametrize("shape", [(1, 5), (2, 4)])
def test_wide_bands_keep_the_first_maximizer(monkeypatch, shape, block):
    # with no bound on its sides a band runs from the scan after a skipped
    # one to the next that shrinks on an axis, so band passes meet tied,
    # massless and near-tied placements over many sizes at once
    monkeypatch.setattr(lattice, "_BAND", math.inf)
    monkeypatch.setattr(lattice, "_BLOCK", block)
    blocks, bands = lattice._block_bounds, []

    def spy(flt, bound, families, steps):
        first, last = _pass_sizes(families)
        bands.append(first != last)
        return blocks(flt, bound, families, steps)

    monkeypatch.setattr(lattice, "_block_bounds", spy)
    for w in _batch_weights(make_lattice(*shape)):
        _assert_doubling_matches_former(w)
    assert any(bands)


@pytest.mark.parametrize("weight", ["lognormal", "zero_block"])
def test_first_max_draws_at_most_one_band_ahead(monkeypatch, weight):
    # scans come from a generator, read lazily: while a scan of side m is
    # bounded or screened, no scan is drawn past the band that may start
    # at m (sides up to m _BAND) and one more; a first INFINITE, at the
    # zero block's size-2 placements, ends the scan before a second draw
    w = _oracle_weight(make_lattice(2, 6), weight, 8)
    n = w.lattice.cells_per_axis
    drawn, reads = [0], []

    def scans():
        for m in range(2, n + 1, 2):
            drawn[0] += 1
            yield (m, m), (lattice._placements(n, (m, m)), lattice._doubles(n, (m, m)))

    differences = lattice._differences

    def spy(tab, family):
        _, lo, hi, *step = family[0]
        if lo >= 0:  # a base family, by size: a block's intersection starts g - 1 in
            reads.append((hi - lo + (step[0] - 1 if step else 0), drawn[0]))
        return differences(tab, family)

    monkeypatch.setattr(lattice, "_differences", spy)
    value, infinite, _, (boxes, _), flat, _ = lattice._first_max(w, scans(), True, blocks=True)
    monkeypatch.undo()
    rep = doubling_report(w, "cube")
    assert (value, infinite) == (rep.constant, rep.infinite)
    assert lattice._rect(boxes, flat, n) == rep.witnesses["doubling"].rect
    if infinite:
        assert drawn[0] == 1
        return
    assert drawn[0] == n // 2
    assert all(k <= int(m * lattice._BAND) // 2 + 1 for m, k in reads)
    assert any(k > m // 2 + 1 for m, k in reads)


@pytest.mark.parametrize("weight, seed", [("lognormal", 5), ("cascade", 3)])
def test_only_screen_survivors_reach_the_engine(monkeypatch, weight, seed):
    # on positive weights every placement is decided by the float64 screen,
    # so the engine reads one batch per grid role, holding only boxes
    # whose ratio is within rounding of the maximum (the cascade's strong
    # scan has thousands of those, all within 1e-15 of it)
    w = _oracle_weight(make_lattice(2, 6), weight, seed)
    w.prefix(1.0)
    engine = lattice._weight_masses
    for mode, roles in (("cube", 2), ("strong", 3)):
        calls = []

        def spy(w, lo, hi):
            out = engine(w, lo, hi)
            calls.append((lo, hi, out))
            return out

        monkeypatch.setattr(lattice, "_weight_masses", spy)
        rep = doubling_report(w, mode)
        monkeypatch.setattr(lattice, "_weight_masses", engine)
        assert len(calls) == roles
        (lo, hi, base), *nums = calls
        n = w.lattice.cells_per_axis
        counts = [n - m + 1 for m in range(2, n + 1, 2)]
        if mode == "cube":
            total = sum(c * c for c in counts)
        else:
            total = 2 * sum(counts) * sum(range(1, n + 1))
        assert 1 <= base.size <= total // 100
        num = np.maximum.reduce([m.astype(np.float64) for *_, m in nums])
        ratios = num / base.astype(np.float64)
        best = rep.constant if mode == "cube" else rep.strong_beta
        wit = rep.witnesses["doubling" if mode == "cube" else "strong"]
        assert ratios.max() == best
        assert (ratios >= best * (1 - 1e-12)).all()
        boxes = [Rect(tuple(int(a[k]) for a in lo), tuple(int(b[k]) for b in hi))
                 for k in range(base.size)]
        assert wit.rect in boxes


@pytest.mark.parametrize("shape", [(1, 5), (2, 3)])
def test_weight_near_float64_overflow_takes_the_exact_path(shape):
    # 2^d corners of a table this large overflow float64, so the screen's
    # bound is infinite and every placement goes to the engine
    lat = make_lattice(*shape)
    dens = 4e307 * np.exp(0.3 * np.random.default_rng(11).standard_normal(lat.shape))
    w = Weight(lat, dens)
    assert lattice._screen_bound(w.prefix(1.0)) == math.inf
    _assert_doubling_matches_former(w)
    _assert_strong_matches_former(w)


def _screen_weight(lat, weight: str, seed: int, rng) -> Weight:
    """High-contrast weights, with massless cells or cells near underflow."""
    if weight == "cascade":
        return gen_weight(lat, {"kind": "cascade", "beta": 0.95, "seed": seed})
    dens = np.exp(3.0 * rng.standard_normal(lat.shape))
    if weight == "zero_block":
        dens[rng.uniform(size=lat.shape) < 0.3] = 0.0
    elif weight == "tiny":
        dens[rng.uniform(size=lat.shape) < 0.5] *= 1e-280
    return Weight(lat, dens)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 6), (2, 4), (3, 2)]),
    st.sampled_from(["rough", "cascade", "zero_block", "tiny"]),
    st.integers(0, 2**20),
)
def test_screen_masses_lie_within_the_bound(shape, weight, seed):
    # the float64 screen mass of every placement and double lies within B
    # of the engine's float64 mass, on high-contrast and massless boxes too
    lat = make_lattice(*shape)
    rng = np.random.default_rng(seed)
    w = _screen_weight(lat, weight, seed, rng)
    tab = w.prefix(1.0)
    bound = lattice._screen_bound(tab)
    # B is about 2^d (2^d + 1) units of roundoff of the total mass
    corners = 2**lat.dim
    assert bound <= corners * (corners + 2) * 2.0**-53 * float(tab[(0,) + (-1,) * lat.dim]) * 1.01
    flt = tab[0]
    n = lat.cells_per_axis
    for _ in range(8):
        sizes = tuple(int(v) for v in rng.choice(np.arange(2, n + 1, 2), lat.dim))
        boxes = lattice._placements(n, sizes)
        axis = int(rng.integers(lat.dim))
        count, _, m = boxes[axis]
        halves = [boxes[:axis] + ((count,) + half,) + boxes[axis + 1 :]
                  for half in ((0, m // 2), (m // 2, m))]
        for family in (boxes, lattice._doubles(n, sizes), *halves):
            every = np.arange(math.prod(c for c, _, _ in family))
            engine = lattice._engine(w, [((family,), every)])[0]
            assert np.all(np.abs(lattice._differences(flt, family) - engine) <= bound)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 6), (2, 4), (3, 2)]),
    st.sampled_from(["rough", "cascade", "zero_block", "tiny"]),
    st.integers(0, 2**20),
)
def test_block_bounds_dominate_their_placements(shape, weight, seed):
    # a block's hi is at least the engine ratio of each of its placements,
    # and inf where one of them has a massless base; its boxes are read as
    # a clipped np.take differences them
    lat = make_lattice(*shape)
    rng = np.random.default_rng(seed)
    w = _screen_weight(lat, weight, seed, rng)
    tab = w.prefix(1.0)
    flt, bound = tab[0], lattice._screen_bound(tab)
    n = lat.cells_per_axis
    for _ in range(8):
        sizes = tuple(int(v) for v in rng.choice(np.arange(2, n + 1, 2), lat.dim))
        steps = [int(rng.integers(1, m + 1)) for m in sizes]
        families = (lattice._placements(n, sizes), lattice._doubles(n, sizes))
        bounds = lattice._block_bounds(flt, bound, families, steps)
        counts = [c for c, _, _ in families[0]]
        blocks = [-(-c // g) for c, g in zip(counts, steps)]
        assert bounds.shape == (math.prod(blocks),)

        # the intersection of a block's bases and the union of its doubles
        inner = [(k, g - 1, m, g) for k, g, (_, _, m) in zip(blocks, steps, families[0])]
        union = [(k, lo, hi + g - 1, g) for k, g, (_, lo, hi) in zip(blocks, steps, families[1])]
        for family in (inner, union):
            want = flt
            for ax, (k, lo, hi, g) in enumerate(family):
                a = g * np.arange(k)
                at = want.ndim - lat.dim + ax
                want = np.take(want, np.minimum(a + hi, n), axis=at) - np.take(want, np.maximum(a + lo, 0), axis=at)
            assert np.array_equal(lattice._differences(flt, family), want.ravel())

        every = np.arange(math.prod(counts))
        base, num = lattice._engine(w, [(families, every)])
        pos = np.unravel_index(every, counts)
        block = np.ravel_multi_index([p // g for p, g in zip(pos, steps)], blocks)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(base > 0.0, num / base, np.where(num > 0.0, np.inf, -1.0))
        worst = np.full(bounds.size, -np.inf)
        np.maximum.at(worst, block, ratio)
        assert np.all(worst <= bounds)
        massless = np.zeros(bounds.size, bool)
        np.logical_or.at(massless, block, base == 0.0)
        assert np.all(bounds[massless] == np.inf)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(1, 6), (2, 4), (3, 2)]),
    st.sampled_from(["rough", "cascade", "zero_block", "tiny"]),
    st.integers(0, 2**20),
)
def test_band_bounds_dominate_every_size_of_the_band(shape, weight, seed):
    # a band pass reads its first sizes' placements as the bases, steps
    # and blocks, and its last sizes' doubles as the numerators; each
    # block's hi is at least the engine ratio of every placement it holds
    # of every size tuple between the two, and inf where one of them has a
    # massless base
    lat = make_lattice(*shape)
    rng = np.random.default_rng(seed)
    w = _screen_weight(lat, weight, seed, rng)
    tab = w.prefix(1.0)
    flt, bound = tab[0], lattice._screen_bound(tab)
    n = lat.cells_per_axis
    for _ in range(4):
        first = tuple(int(v) for v in rng.choice(np.arange(2, n + 1, 2), lat.dim))
        last = tuple(int(rng.choice(np.arange(m, n + 1, 2))) for m in first)
        steps = [int(rng.integers(1, m + 1)) for m in first]
        band = (lattice._placements(n, first), lattice._doubles(n, last))
        bounds = lattice._block_bounds(flt, bound, band, steps)
        blocks = [-(-c // g) for (c, _, _), g in zip(band[0], steps)]
        worst = np.full(bounds.size, -np.inf)
        massless = np.zeros(bounds.size, bool)
        for sizes in iproduct(*(range(a, b + 1, 2) for a, b in zip(first, last))):
            families = (lattice._placements(n, sizes), lattice._doubles(n, sizes))
            counts = [c for c, _, _ in families[0]]
            every = np.arange(math.prod(counts))
            base, num = lattice._engine(w, [(families, every)])
            pos = np.unravel_index(every, counts)
            block = np.ravel_multi_index([p // g for p, g in zip(pos, steps)], blocks)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(base > 0.0, num / base, np.where(num > 0.0, np.inf, -1.0))
            np.maximum.at(worst, block, ratio)
            np.logical_or.at(massless, block, base == 0.0)
        assert np.all(worst <= bounds)
        assert np.all(bounds[massless] == np.inf)


# ---------------------------------------------------------------------------
# the dyadic pyramid against a math.fsum oracle


def _fsum_level(h: np.ndarray, lat, levels, m=None) -> np.ndarray:
    """math.fsum of the cellwise h over every box of a level tuple, laid
    out as _level_masses lays them out."""
    dims = (lat.dim,) if m is None else (m, lat.dim - m)
    sides = [lat.cells_per_axis >> lv for lv, d in zip(levels, dims) for _ in range(d)]
    out = np.empty(tuple(lat.cells_per_axis // s for s in sides))
    for idx in np.ndindex(*out.shape):
        box = h[tuple(slice(i * s, (i + 1) * s) for i, s in zip(idx, sides))]
        out[idx] = math.fsum(box.ravel().tolist())
    return out


def _ulps(a, b) -> int:
    """Largest distance in float64 ulps between matching nonnegative entries."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64)), initial=0))


@pytest.mark.parametrize(
    "dim, m, depth",
    [(1, None, 10), (2, None, 6), (2, 1, 6), (3, None, 4), (3, 1, 4), (3, 2, 4)],
)
@pytest.mark.parametrize("weight", ["cascade", "zero_block"])
def test_dyadic_masses_match_fsum_oracle(dim, m, depth, weight):
    # every dyadic cube (m None) or rectangle mass is within an ulp of the
    # correctly rounded sum of its cells, and exactly 0 on boxes holding
    # no positive cell; the prefix engine reads the finest boxes of a
    # beta = 0.9 cascade up to 5e-4 relative off
    lat = make_lattice(dim, depth)
    if weight == "cascade":
        w = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": dim + depth})
    else:
        dens = np.exp(0.8 * substream(dim, 9500).standard_normal(lat.shape))
        q = lat.cells_per_axis // 4
        dens[(slice(q, 2 * q),) + (slice(q, 3 * q),) * (dim - 1)] = 0.0
        w = Weight(lat, dens)
    for theta in (1.0, 1.5):
        h = lattice._cellwise(lat, w.density, theta)
        seen = 0
        for levels, masses in lattice._level_masses(h, lat, m):
            want = _fsum_level(h, lat, levels, m)
            assert masses.shape == want.shape
            assert _ulps(masses, want) <= 1, (theta, levels)
            assert np.array_equal(masses == 0.0, want == 0.0), (theta, levels)
            seen += 1
        assert seen == (depth + 1) ** (1 if m is None else 2)


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("dim, m", [(2, 1), (3, 1), (3, 2), (4, 3)])
def test_stacked_pyramid_yields_every_level_tuple_once(dim, m, depth):
    # the first factor's levels are summed in stacks, the finest, the next
    # and every coarser one; each level tuple still comes out once, shaped
    # as its cubes
    lat = make_lattice(dim, depth)
    h = lattice._cellwise(lat, np.ones((3,) + lat.shape))
    seen = []
    for (li, lj), masses in lattice._level_masses(h, lat, m):
        assert masses.shape == (3,) + (1 << li,) * m + (1 << lj,) * (dim - m)
        seen.append((li, lj))
    assert sorted(seen) == list(iproduct(range(depth + 1), repeat=2))
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("compensated", [True, False])
@pytest.mark.parametrize("m", [None, 1, 2])
def test_stacked_pyramid_matches_tree_mass_bit_for_bit(m, compensated):
    # halving the second factor once for a stack of first-factor levels
    # is the same elementwise arithmetic as halving each level alone, and
    # one factor (m None) is one such stream over every axis, so every
    # mass of every batch row has the bits of its own tree sum, with
    # TwoSum errors or plain
    lat = make_lattice(3, 3)
    rng = substream(m or 0, 9600)
    dens = np.exp(2.5 * rng.standard_normal((2,) + lat.shape))
    dens[rng.uniform(size=dens.shape) < 0.2] = 0.0
    h = lattice._cellwise(lat, dens, 1.5)
    dims = (lat.dim,) if m is None else (m, lat.dim - m)
    n = lat.cells_per_axis
    for levels, masses in lattice._level_masses(h, lat, m, compensated):
        sides = [n >> lv for lv, d in zip(levels, dims) for _ in range(d)]
        for idx in np.ndindex(*masses.shape[1:]):
            lo = tuple(i * a for i, a in zip(idx, sides))
            rect = Rect(lo, tuple(a + b for a, b in zip(lo, sides)))
            block = h[(slice(None),) + tuple(map(slice, rect.lo, rect.hi))]
            want = lattice._tree_mass(block, lattice._factor_axes(h, lat, m), 0.0 if compensated else None)
            assert masses[(slice(None),) + idx].tobytes() == want.tobytes(), (levels, idx)


@pytest.mark.parametrize("mode, dim, depth", [("rectangle", 2, 5), ("strong", 2, 4), ("strong", 3, 3)])
def test_size_tuple_budget_refuses_before_scanning(monkeypatch, mode, dim, depth):
    # rectangle visits (n/2)^d size tuples and strong d (n/2) n^(d-1); one
    # over the limit raises before the first tuple is read
    lat = make_lattice(dim, depth)
    n = lat.cells_per_axis
    tuples = (n // 2) ** dim if mode == "rectangle" else dim * (n // 2) * n ** (dim - 1)
    w = lebesgue(lat)

    def refuse(*args, **kwargs):
        raise AssertionError("a scan ran past the budget")

    first_max = lattice._first_max
    monkeypatch.setattr(lattice, "SCAN_BUDGET_TUPLES", tuples - 1)
    monkeypatch.setattr(lattice, "_first_max", refuse)
    with pytest.raises(ResourceError, match=str(tuples)):
        doubling_report(w, mode)
    monkeypatch.setattr(lattice, "SCAN_BUDGET_TUPLES", tuples)
    monkeypatch.setattr(lattice, "_first_max", first_max)
    assert doubling_report(w, mode).mode == mode


def test_cellwise_at_theta_one_keeps_the_powered_bits():
    # theta = 1 skips np.power(u, 1.0) and its overflow pass: pow(x, 1)
    # is x for every finite float, subnormals, zeros and the largest
    # float included, so every cell keeps its bits, with or without out=
    lat = make_lattice(2, 6)
    rng = np.random.default_rng(11)
    u = np.exp(rng.standard_normal(lat.shape) * 30.0)
    u.flat[:6] = [0.0, 5e-324, 2.2e-308, 1.7976931348623157e308, 1.0, 3.0]
    want = np.power(u, 1.0) * lat.cell_volume
    assert lattice._cellwise(lat, u).tobytes() == want.tobytes()
    out = np.empty((2,) + lat.shape)
    assert lattice._cellwise(lat, u, 1.0, out[1]) is not None
    assert out[1].tobytes() == want.tobytes()
    # any other theta still powers into out and refuses an overflow
    v = np.minimum(u, 1e200)
    lattice._cellwise(lat, v, 1.5, out[0])
    assert out[0].tobytes() == (np.power(v, 1.5) * lat.cell_volume).tobytes()
    with pytest.raises(DomainError, match="overflows"):
        lattice._cellwise(lat, u, 1.5)
