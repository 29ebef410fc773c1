"""Kernel, bilinear form, split, fractional integral, and norm bound tests.

Frozen oracles, derived by hand before the module existed: the level kernel
values 1.0 (top rectangle) and 4.0 (level-2 pair at alpha = beta = 1/2), the
Lebesgue bilinear series ((1 - 2^-(L+1)/2) / (1 - 2^-1/2))^2, the single
rectangle value 2^1.5 / 64, the surrogate separation example 1 + sqrt(2),
and the continuum fractional integral value 8.0 at the center of the square
(midpoint sums approach it from below, 1.2 percent low at depth 5).
"""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    Cube,
    DomainError,
    DyadicRect,
    Exponents,
    RectFamily,
    GoodnessParams,
    GridFunction,
    KernelHandle,
    Rect,
    ResourceError,
    ScopeError,
    ShapeError,
    Weight,
    apply_frac_integral,
    bilinear_form,
    characteristic,
    characteristic_at,
    dyadic_family,
    embed_check_rects,
    family_of,
    gen_weight,
    goodbad_split,
    integrate,
    kernel_eval,
    lp_norm,
    make_lattice,
    norm_estimate,
    onethird_grids,
    standard_grid,
    substream,
    surrogate_kernel,
    surrogate_kernels,
)
import dyadlab
from dyadlab import forms
from dyadlab.errors import AlignmentError
from dyadlab.grids import DyadicGrid, ShiftParam, deepest_common_level, random_grid


def _exact(values) -> tuple:
    """Finite float64 values as Python ints over one power of two: (ints,
    shift), values == ints * 2^shift exactly, ints an object array."""
    vals = np.asarray(values, dtype=np.float64)
    nonzero = np.abs(vals[vals != 0.0])
    shift = int(np.frexp(nonzero)[1].min()) - 53 if nonzero.size else 0
    ints = [int(v) for v in np.ldexp(vals, -shift).ravel().tolist()]
    return np.array(ints, dtype=object).reshape(vals.shape), shift


def _rounded(ints, shift: int) -> np.ndarray:
    """ints * 2^shift, each correctly rounded to float64."""
    return np.array([float(Fraction(v) * Fraction(2) ** shift) for v in np.ravel(ints).tolist()]).reshape(np.shape(ints))


def _mass_table(f, w) -> tuple:
    """Exact integer prefix table of the float64 cells f * density *
    cell_volume, as _exact gives them: (table, shift)."""
    ints, shift = _exact(f.values * w.density * w.lattice.cell_volume)
    tab = np.zeros(tuple(n + 1 for n in ints.shape), dtype=object)
    tab[(slice(1, None),) * ints.ndim] = ints
    for axis in range(ints.ndim):
        tab = np.cumsum(tab, axis=axis)
    return tab, shift


def _level_values(kernel, levels):
    """The kernel's level value of each (li, lj) row, in float64."""
    return np.array([kernel.level_value(int(a), int(b)) for a, b in levels], dtype=np.float64)


HALF = KernelHandle.product_frac(0.5, 0.5, 1, 1)


def lebesgue(lat):
    return Weight(lat, np.ones(lat.shape))


def rand_w(lat, seed, rough=0.6):
    return gen_weight(lat, {"kind": "random_lognormal", "seed": seed, "roughness": rough})


def rand_f(lat, seed):
    rng = substream(seed, 9100)
    return GridFunction(lat, np.exp(0.7 * rng.standard_normal(lat.shape)))


# ---------------------------------------------------------------------------
# kernel handles


def test_kernel_top_rect_is_one():
    grid = standard_grid(1, 0, 4)
    rect = DyadicRect(Cube(grid, 0, (0,)), Cube(grid, 0, (0,)))
    assert kernel_eval(HALF, rect) == 1.0


def test_kernel_level_two_pair_is_four():
    grid = standard_grid(1, 0, 4)
    rect = DyadicRect(Cube(grid, 2, (1,)), Cube(grid, 2, (3,)))
    assert kernel_eval(HALF, rect) == 4.0


def test_kernel_rejects_exponents_outside_open_interval():
    with pytest.raises(DomainError):
        KernelHandle.product_frac(0.0, 0.5, 1, 1)
    with pytest.raises(DomainError):
        KernelHandle.product_frac(0.5, 1.0, 1, 1)
    with pytest.raises(DomainError):
        KernelHandle.product_frac(2.5, 0.5, 2, 1)


def test_kernel_table_variant():
    tab = KernelHandle.from_table({(0, 0): 1.0, (1, 2): 7.5}, 1, 1)
    assert tab.level_value(1, 2) == 7.5
    with pytest.raises(DomainError):
        tab.level_value(3, 3)
    with pytest.raises(DomainError):
        KernelHandle.from_table({(0, 0): -1.0}, 1, 1)


# ---------------------------------------------------------------------------
# rectangle families


def test_dyadic_family_size():
    lat = make_lattice(2, 2)
    fam = dyadic_family(lat, 1)
    assert fam.size == (1 + 2 + 4) ** 2
    assert fam.tag == "dyadic"


@pytest.mark.parametrize("dim,m,depth", [(2, 1, 3), (3, 1, 2), (3, 2, 2)])
def test_dyadic_family_boxes_tile_every_level_pair(dim, m, depth):
    # each level pair's boxes are its cube products in C order of their
    # lower corners, the pairs in product order
    lat = make_lattice(dim, depth)
    fam = dyadic_family(lat, m)
    want, levels = [], []
    for li, lj in iproduct(range(depth + 1), repeat=2):
        sides = [lat.cells_per_axis >> li] * m + [lat.cells_per_axis >> lj] * (dim - m)
        for idx in iproduct(*(range(lat.cells_per_axis // side) for side in sides)):
            want.append([[i * side, (i + 1) * side] for i, side in zip(idx, sides)])
            levels.append((li, lj))
    assert fam.boxes.dtype == np.int64 and fam.levels.dtype == np.int64
    assert np.array_equal(fam.boxes, np.array(want))
    assert np.array_equal(fam.levels, np.array(levels))


def test_dyadic_family_refuses_past_the_array_budget(monkeypatch):
    # the box array, size x dim x 2 int64, is sized before any box is built
    lat = make_lattice(3, 2)
    need = forms._family_size(lat, 1, 2) * 3 * 2 * 8

    def refuse(*args, **kwargs):
        raise AssertionError("a box was built past the budget")

    tiles = forms._tiles
    monkeypatch.setattr(forms, "ARRAY_BUDGET_BYTES", need - 1)
    monkeypatch.setattr(forms, "_tiles", refuse)
    with pytest.raises(ResourceError, match=f"{need} bytes, limit {need - 1} bytes"):
        dyadic_family(lat, 1)
    monkeypatch.setattr(forms, "ARRAY_BUDGET_BYTES", need)
    monkeypatch.setattr(forms, "_tiles", tiles)
    fam = dyadic_family(lat, 1)
    assert fam.boxes.nbytes == need


def test_family_of_boxes_and_validation():
    lat = make_lattice(2, 3)
    grid = standard_grid(1, 0, 3)
    rect = DyadicRect(Cube(grid, 1, (0,)), Cube(grid, 2, (1,)))
    fam = family_of(lat, [rect])
    assert fam.size == 1
    np.testing.assert_array_equal(fam.boxes[0], [[0, 4], [2, 4]])
    np.testing.assert_array_equal(fam.levels[0], [1, 2])
    with pytest.raises(DomainError):
        family_of(lat, [])
    deep = DyadicRect(Cube(grid, 5, (0,)), Cube(grid, 0, (0,)))
    with pytest.raises(AlignmentError):
        family_of(lat, [deep])
    shifted = onethird_grids(1, 0, 3)[1]
    with pytest.raises(DomainError):
        family_of(lat, [DyadicRect(Cube(shifted, 1, (0,)), Cube(grid, 0, (0,)))])


# ---------------------------------------------------------------------------
# bilinear form


def test_bilinear_lebesgue_series():
    depth = 5
    lat = make_lattice(2, depth)
    w = lebesgue(lat)
    one = GridFunction(lat, np.ones(lat.shape))
    got = bilinear_form(HALF, w, w, one, one)
    axis = (1.0 - 2.0 ** (-(depth + 1) / 2.0)) / (1.0 - 2.0**-0.5)
    assert got.total == pytest.approx(axis**2, rel=1e-12)
    assert got.parts is None


def test_bilinear_zero_argument():
    lat = make_lattice(2, 3)
    w = rand_w(lat, 5)
    zero = GridFunction(lat, np.zeros(lat.shape))
    one = GridFunction(lat, np.ones(lat.shape))
    assert bilinear_form(HALF, w, w, one, zero).total == 0.0


def test_bilinear_single_rect_closed_form():
    lat = make_lattice(2, 3)
    w = lebesgue(lat)
    one = GridFunction(lat, np.ones(lat.shape))
    grid = standard_grid(1, 0, 3)
    rect = DyadicRect(Cube(grid, 1, (0,)), Cube(grid, 2, (1,)))
    fam = family_of(lat, [rect])
    got = bilinear_form(HALF, w, w, one, one, fam).total
    assert got == pytest.approx(2.0**1.5 / 64.0, rel=1e-14)


def test_bilinear_grows_with_family():
    lat = make_lattice(2, 3)
    sig, om = rand_w(lat, 11), rand_w(lat, 12)
    f, g = rand_f(lat, 13), rand_f(lat, 14)
    grid = standard_grid(1, 0, 3)
    top = DyadicRect(Cube(grid, 0, (0,)), Cube(grid, 0, (0,)))
    more = [top, DyadicRect(Cube(grid, 1, (0,)), Cube(grid, 0, (0,)))]
    small = bilinear_form(HALF, sig, om, f, g, family_of(lat, [top])).total
    mid = bilinear_form(HALF, sig, om, f, g, family_of(lat, more)).total
    full = bilinear_form(HALF, sig, om, f, g).total
    assert small <= mid <= full


def test_bilinear_lattice_mismatch():
    sig = lebesgue(make_lattice(2, 3))
    om = lebesgue(make_lattice(2, 2))
    one = GridFunction(sig.lattice, np.ones(sig.lattice.shape))
    with pytest.raises(ShapeError):
        bilinear_form(HALF, sig, om, one, one)


# ---------------------------------------------------------------------------
# surrogate kernel


def _brute_surrogate(kernel, x, y, u, v, i_grids, j_grids):
    """Independent check: exact cube membership via Fraction indices."""

    def common_levels(grid, a, b):
        return [
            level
            for level in range(grid.lo, grid.hi + 1)
            if grid.cube_at(a, level).index == grid.cube_at(b, level).index
        ]

    total = 0.0
    for gi in i_grids:
        for li in common_levels(gi, x, u):
            for gj in j_grids:
                for lj in common_levels(gj, y, v):
                    total += kernel.level_value(li, lj)
    return total


def test_surrogate_scale_zero_separation():
    grid = standard_grid(1, 0, 4)
    got = surrogate_kernel(HALF, (0.1,), (0.2,), (0.9,), (0.3,), [grid], [grid])
    assert got == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)


def test_surrogate_same_finest_cell_is_out_of_scope():
    grid = standard_grid(1, 0, 4)
    with pytest.raises(ScopeError):
        surrogate_kernel(HALF, (0.1,), (0.2,), (0.12,), (0.8,), [grid], [grid])


def test_surrogate_matches_brute_force_on_third_grids():
    i_grids = onethird_grids(1, 0, 4)
    j_grids = onethird_grids(1, 0, 4)
    rng = substream(404, 1)
    checked = 0
    while checked < 40:
        x, y, u, v = rng.uniform(0.0, 1.0, size=4)
        try:
            got = surrogate_kernel(HALF, (x,), (y,), (u,), (v,), i_grids, j_grids)
        except ScopeError:
            continue
        want = _brute_surrogate(HALF, (x,), (y,), (u,), (v,), i_grids, j_grids)
        assert got == pytest.approx(want, rel=1e-12)
        checked += 1


def test_surrogate_table_kernel_agrees_with_brute_force():
    tab = KernelHandle.from_table(
        {(li, lj): 1.0 + 0.25 * li + 0.5 * lj for li in range(5) for lj in range(5)},
        1,
        1,
    )
    grids = onethird_grids(1, 0, 4)
    got = surrogate_kernel(tab, (0.1,), (0.55,), (0.6,), (0.8,), grids, grids)
    want = _brute_surrogate(tab, (0.1,), (0.55,), (0.6,), (0.8,), grids, grids)
    assert got == pytest.approx(want, rel=1e-12)


def _former_surrogate(kernel, x, y, u, v, i_grids, j_grids):
    """surrogate_kernel's former series, each sum a math.fsum."""
    i_tops = [deepest_common_level(g, x, u) for g in i_grids]
    j_tops = [deepest_common_level(g, y, v) for g in j_grids]
    for grid, top in (*zip(i_grids, i_tops), *zip(j_grids, j_tops)):
        if top == grid.hi:
            raise ScopeError("share a finest cell")
    if kernel.kind == "product_frac":
        sx, sy = (
            math.fsum(
                2.0 ** (lv * exp)
                for grid, top in zip(grids, tops)
                if top is not None
                for lv in range(grid.lo, top + 1)
            )
            for grids, tops, exp in (
                (i_grids, i_tops, kernel.m - kernel.alpha),
                (j_grids, j_tops, kernel.n - kernel.beta),
            )
        )
        return sx * sy
    return math.fsum(
        kernel.level_value(li, lj)
        for gi, ti in zip(i_grids, i_tops)
        if ti is not None
        for gj, tj in zip(j_grids, j_tops)
        if tj is not None
        for li in range(gi.lo, ti + 1)
        for lj in range(gj.lo, tj + 1)
    )


def _surrogate_families(draw, dim):
    lo = draw(st.integers(-4, 1))
    hi = draw(st.integers(lo + 1, 9))
    kind = draw(st.sampled_from(("third", "std", "shift")))
    if kind == "third":
        return onethird_grids(dim, lo, hi)
    if kind == "std":
        return [standard_grid(dim, lo, hi)]
    bits = st.lists(st.integers(0, 1), min_size=hi - lo, max_size=hi - lo)
    return [
        random_grid([ShiftParam(lo, hi, tuple(draw(bits))) for _ in range(dim)])
        for _ in range(draw(st.integers(1, 2)))
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_surrogate_batch_matches_scalar_and_former_series(data):
    m, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    i_grids, j_grids = _surrogate_families(data.draw, m), _surrogate_families(data.draw, n)
    if data.draw(st.booleans()):
        alpha, beta = data.draw(st.floats(0.1, 0.9)), data.draw(st.floats(0.1, 0.9))
        kernel = KernelHandle.product_frac(alpha, beta, m, n)
    else:
        levels = range(-4, 10)
        kernel = KernelHandle.from_table(
            {(a, b): 1.0 / (20 + a + 0.7 * b) ** 2 for a in levels for b in levels}, m, n
        )
    rows = data.draw(st.integers(1, 12))

    def points(dims):
        coord = st.floats(0.0, 1.0, exclude_max=True)
        point = st.lists(coord, min_size=dims, max_size=dims)
        return np.array(data.draw(st.lists(point, min_size=rows, max_size=rows)))

    x, y, u, v = points(m), points(n), points(m), points(n)
    if data.draw(st.booleans()):
        u[0] = x[0]  # one saturated row
    got = surrogate_kernels(kernel, x, y, u, v, i_grids, j_grids)
    for r in range(rows):
        args = (tuple(x[r]), tuple(y[r]), tuple(u[r]), tuple(v[r]), i_grids, j_grids)
        try:
            want = surrogate_kernel(kernel, *args)
        except ScopeError:
            with pytest.raises(ScopeError):
                _former_surrogate(kernel, *args)
            assert math.isnan(got[r])
            continue
        assert want.hex() == _former_surrogate(kernel, *args).hex()
        assert got[r].hex() == want.hex()


def test_surrogate_table_kernel_reads_only_reached_levels():
    # the table stops at level 2; pairs split above it never read level 3
    tab = KernelHandle.from_table({(a, b): 1.0 for a in range(3) for b in range(3)}, 1, 1)
    grid = standard_grid(1, 0, 6)
    x, y, u, v = (0.1,), (0.1,), (0.2,), (0.2,)
    assert surrogate_kernel(tab, x, y, u, v, [grid], [grid]) == 9.0
    got = surrogate_kernels(tab, [x], [y], [u], [v], [grid], [grid])
    assert got.tolist() == [9.0]
    with pytest.raises(DomainError):
        surrogate_kernels(tab, [x, (0.1,)], [y, y], [u, (0.11,)], [v, v], [grid], [grid])


def test_surrogate_batch_validates():
    grid = standard_grid(1, 0, 4)
    pt = [[0.5]]
    with pytest.raises(DomainError):
        surrogate_kernels(HALF, [[1.2]], pt, pt, pt, [grid], [grid])
    with pytest.raises(DomainError):
        surrogate_kernels(HALF, [[math.nan]], pt, pt, pt, [grid], [grid])
    with pytest.raises(ShapeError):
        surrogate_kernels(HALF, [[0.1, 0.2]], pt, pt, pt, [grid], [grid])
    with pytest.raises(ShapeError):
        surrogate_kernels(HALF, [[0.1], [0.2]], pt, pt, pt, [grid], [grid])
    with pytest.raises(ShapeError):
        surrogate_kernels(HALF, pt, pt, pt, pt, [standard_grid(2, 0, 4)], [grid])


def test_surrogate_validates_points():
    grid = standard_grid(1, 0, 4)
    with pytest.raises(DomainError):
        surrogate_kernel(HALF, (1.2,), (0.2,), (0.5,), (0.3,), [grid], [grid])
    with pytest.raises(ShapeError):
        surrogate_kernel(HALF, (0.1, 0.2), (0.2,), (0.5,), (0.3,), [grid], [grid])


# ---------------------------------------------------------------------------
# good/bad split


def test_split_all_good_when_gap_exceeds_depth():
    lat = make_lattice(2, 3)
    sig, om = rand_w(lat, 21), rand_w(lat, 22)
    f, g = rand_f(lat, 23), rand_f(lat, 24)
    split = goodbad_split(HALF, sig, om, f, g, GoodnessParams(0.25, 8))
    assert split.parts is not None
    gg, ab, ba = split.parts
    assert ab == 0.0 and ba == 0.0
    assert gg == split.total
    direct = bilinear_form(HALF, sig, om, f, g).total
    assert split.total == pytest.approx(direct, rel=1e-12)


def test_split_identity_on_random_data():
    lat = make_lattice(2, 5)
    for seed in range(6):
        sig, om = rand_w(lat, 31 + seed), rand_w(lat, 41 + seed)
        f, g = rand_f(lat, 51 + seed), rand_f(lat, 61 + seed)
        split = goodbad_split(HALF, sig, om, f, g, GoodnessParams(0.25, 2))
        gg, ab, ba = split.parts
        assert split.total <= (gg + ab + ba) * (1 + 1e-12)
        direct = bilinear_form(HALF, sig, om, f, g).total
        assert split.total == pytest.approx(direct, rel=1e-9)
        assert min(gg, ab, ba) >= 0.0


def test_split_has_bad_parts_at_depth():
    lat = make_lattice(2, 5)
    w = lebesgue(lat)
    one = GridFunction(lat, np.ones(lat.shape))
    split = goodbad_split(HALF, w, w, one, one, GoodnessParams(0.25, 2))
    assert split.parts[1] > 0.0
    assert split.parts[2] > 0.0


# ---------------------------------------------------------------------------
# fractional integral


def test_frac_integral_zero_function():
    lat = make_lattice(2, 4)
    zero = GridFunction(lat, np.zeros(lat.shape))
    out = apply_frac_integral(zero, 0.5, 0.5, 1, 1)
    assert not out.values.any()


def test_frac_integral_point_mass_far_field_exact():
    depth = 5
    lat = make_lattice(2, depth)
    h = 2.0**-depth
    vals = np.zeros(lat.shape)
    src = (3, 4)
    vals[src] = 1.0
    out = apply_frac_integral(GridFunction(lat, vals), 0.5, 0.5, 1, 1)
    probe = (27, 29)
    dx = abs(probe[0] - src[0]) * h
    dy = abs(probe[1] - src[1]) * h
    want = dx**-0.5 * h * dy**-0.5 * h
    assert out.values[probe] == pytest.approx(want, rel=1e-12)


def test_frac_integral_center_value_approaches_continuum():
    values = {}
    for depth in (5, 6):
        lat = make_lattice(2, depth)
        one = GridFunction(lat, np.ones(lat.shape))
        out = apply_frac_integral(one, 0.5, 0.5, 1, 1)
        mid = lat.cells_per_axis // 2
        values[depth] = out.values[mid, mid]
    assert abs(values[5] - 8.0) / 8.0 < 0.02
    assert abs(values[6] - 8.0) < abs(values[5] - 8.0)


def test_frac_integral_validates_exponents_and_shape():
    lat = make_lattice(2, 3)
    one = GridFunction(lat, np.ones(lat.shape))
    with pytest.raises(DomainError):
        apply_frac_integral(one, 1.0, 0.5, 1, 1)
    with pytest.raises(ShapeError):
        apply_frac_integral(one, 0.5, 0.5, 1, 2)


def test_frac_integral_budget_counts_the_largest_factor(monkeypatch):
    # 2D depth 4, m = n = 1: each factor's difference array holds 16^2
    # float64 values, 2048 bytes
    lat = make_lattice(2, 4)
    one = GridFunction(lat, np.ones(lat.shape))
    monkeypatch.setattr(forms, "ARRAY_BUDGET_BYTES", 2048)
    apply_frac_integral(one, 0.5, 0.5, 1, 1)
    monkeypatch.setattr(forms, "ARRAY_BUDGET_BYTES", 2047)
    with pytest.raises(ResourceError, match="2048-byte .* limit 2047 bytes"):
        apply_frac_integral(one, 0.5, 0.5, 1, 1)
    # 3D depth 2, m = 2: 16 first-factor cells, 16^2 * 2 values
    lat = make_lattice(3, 2)
    one = GridFunction(lat, np.ones(lat.shape))
    monkeypatch.setattr(forms, "ARRAY_BUDGET_BYTES", 4095)
    with pytest.raises(ResourceError, match="4096-byte"):
        apply_frac_integral(one, 1.0, 0.5, 2, 1)


def test_frac_integral_refuses_a_huge_factor_before_allocating():
    # 3D m = 2 at depth 7 lies inside the cell budget, but its first factor
    # would need a 16384 x 16384 x 2 difference array (4.3 GB)
    lat = make_lattice(3, 7)
    f = GridFunction(lat, np.zeros(lat.shape))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=f"{16384**2 * 2 * 8}-byte"):
            apply_frac_integral(f, 1.0, 0.5, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# norm estimate


def _exps(theta=1.0):
    return Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, m=1, n=1, theta=theta)


def test_norm_estimate_single_rect_closed_form():
    lat = make_lattice(2, 3)
    sig, om = rand_w(lat, 71), rand_w(lat, 72)
    grid = standard_grid(1, 0, 3)
    rect = DyadicRect(Cube(grid, 1, (1,)), Cube(grid, 2, (0,)))
    fam = family_of(lat, [rect])
    exps = _exps()
    est = norm_estimate(HALF, sig, om, exps, family=fam, iterations=4, seed=3)
    box = fam.boxes[0]
    region = Rect(tuple(int(a) for a in box[:, 0]), tuple(int(b) for b in box[:, 1]))
    want = (
        kernel_eval(HALF, rect)
        * integrate(sig, region) ** (1.0 / exps.p_prime)
        * integrate(om, region) ** (1.0 / exps.q)
    )
    assert est.lower_bound == pytest.approx(want, rel=1e-12)


def test_norm_estimate_traces_are_monotone():
    lat = make_lattice(2, 4)
    for seed in range(10):
        sig, om = rand_w(lat, 81 + seed), rand_w(lat, 91 + seed)
        est = norm_estimate(HALF, sig, om, _exps(), iterations=5, seed=seed)
        by_start = {}
        for start, step, obj in est.trace:
            by_start.setdefault(start, []).append((step, obj))
        for rows in by_start.values():
            objs = [obj for _, obj in sorted(rows)]
            for a, b in zip(objs, objs[1:]):
                assert b >= a * (1 - 1e-10)


def test_norm_estimate_dominates_no_bump_characteristic():
    lat = make_lattice(2, 4)
    for seed in range(10):
        sig, om = rand_w(lat, 201 + seed), rand_w(lat, 301 + seed)
        est = norm_estimate(HALF, sig, om, _exps(), iterations=3, seed=seed)
        char = characteristic("no_bump", None, sig, om, _exps(), family="dyadic")
        assert est.lower_bound >= char.value
        assert est.indicator_floor == char.value


def test_norm_estimate_zero_weight():
    # no start has L^p(sigma) mass, so none joins the batch
    lat = make_lattice(2, 3)
    zero = Weight(lat, np.zeros(lat.shape))
    om = rand_w(lat, 7)
    est = _assert_batch_matches_former(HALF, zero, om, _exps(), iterations=2, seed=1)
    assert est.lower_bound == 0.0
    assert est.trace == ()


def test_norm_estimate_kernel_exponent_mismatch():
    lat = make_lattice(2, 3)
    w = rand_w(lat, 8)
    bad = KernelHandle.product_frac(0.25, 0.5, 1, 1)
    with pytest.raises(DomainError):
        norm_estimate(bad, w, w, _exps(), iterations=1)
    # a table kernel's (m, n) must be the exponents' on every family
    lat3 = make_lattice(3, 2)
    w3 = rand_w(lat3, 9)
    table = KernelHandle.from_table({(a, b): 1.0 for a in range(3) for b in range(3)}, 2, 1)
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, m=1, n=2)
    for family in (None, dyadic_family(lat3, 2)):
        with pytest.raises(DomainError):
            norm_estimate(table, w3, w3, exps, family=family, iterations=1)


def test_norm_estimate_below_bump_characteristic_times_embed_ratios():
    """The two-sided sandwich this module exists for, in miniature.

    Splitting the form by the bump characteristic and applying Holder
    across rectangles with the conjugate pair (r, r') at r = sqrt(pq)
    bounds the form by the product-bump characteristic times the two
    rectangle embedding ratios of the returned maximizer pair.
    """
    lat = make_lattice(2, 4)
    theta = 1.5
    exps = _exps(theta)
    for seed in range(4):
        sig, om = rand_w(lat, 401 + seed), rand_w(lat, 501 + seed)
        est = norm_estimate(HALF, sig, om, exps, iterations=4, seed=seed)
        r_mid = math.sqrt(exps.p * exps.q)
        r_conj = r_mid / (r_mid - 1.0)
        ratio_sig = embed_check_rects(est.best_f, sig, theta, r_mid, exps.p, m=1).ratio
        ratio_om = embed_check_rects(est.best_g, om, theta, r_conj, exps.q_prime, m=1).ratio
        char = characteristic("product_bump", None, sig, om, exps, family="dyadic")
        assert est.lower_bound <= ratio_sig * ratio_om * char.value * (1 + 1e-9)


def test_norm_estimate_iterations_must_be_a_nonnegative_int():
    lat = make_lattice(2, 3)
    w = rand_w(lat, 9)
    for bad in (-2, -1, 2.5, "3", True, None):
        with pytest.raises(DomainError):
            norm_estimate(HALF, w, w, _exps(), iterations=bad)
    est = norm_estimate(HALF, w, w, _exps(), iterations=0)
    assert est.trace == ()
    assert est.lower_bound == est.indicator_floor


def test_norm_estimate_refuses_iterations_past_the_limit(monkeypatch):
    # the count is checked before the first half-step; the default passes
    # on every lattice, as the limit does not depend on it
    import inspect

    default = inspect.signature(norm_estimate).parameters["iterations"].default
    assert default <= dyadlab.lattice.NORM_BUDGET_ITERATIONS == forms.NORM_BUDGET_ITERATIONS
    lat = make_lattice(2, 3)
    w = rand_w(lat, 9)
    steps = []
    half_steps = forms._half_steps
    monkeypatch.setattr(forms, "_half_steps", lambda *a: steps.append(1) or half_steps(*a))
    monkeypatch.setattr(forms, "NORM_BUDGET_ITERATIONS", 3)
    with pytest.raises(ResourceError, match="norm estimate's 4 iterations pass the limit of 3"):
        norm_estimate(HALF, w, w, _exps(), iterations=4)
    assert steps == []
    assert len(norm_estimate(HALF, w, w, _exps(), iterations=3).trace) == len(steps) * 4 == 24


# ---------------------------------------------------------------------------
# the batched starts against the former start-by-start loop
#
# norm_estimate runs every start through one pyramid pass per half-step.
# The former loop, kept here as the reference, ran each start on its own
# through the scalar half-step and broke out of a start whose f-to-g
# half-step returned 0; every operation is elementwise, so the batch keeps
# each start's bits.


def _former_half_step(vals, src_w, dst_w, coef, m, dual_exp):
    lat = src_w.lattice
    columns = forms._coef_columns(coef, lat, m)
    image = forms._dyadic_image(vals * src_w.density * lat.cell_volume, lat, m, columns)
    norm = float(forms._lp_norms(lat, image, dst_w.density, dual_exp))
    if norm == 0.0:
        return 0.0, np.zeros(lat.shape)
    return norm, np.power(image / norm, dual_exp - 1.0)


def _former_norm_estimate(kernel, sigma, omega, exps, family=None, iterations=8, seed=0):
    lat = sigma.lattice
    coef = forms._level_coefs(kernel, lat, family)
    floor_value, witness = forms._indicator_floor(kernel, sigma, omega, exps, family)
    starts = [np.exp(0.5 * substream(seed, 606, t).standard_normal(lat.shape)) for t in range(3)]
    indicator_pair = forms._indicator_pair(lat, sigma, omega, witness, exps.p, exps.q_prime)
    if indicator_pair is not None:
        starts.append(indicator_pair[0])
    trace, best, best_pair = [], -1.0, None
    for t, f0 in enumerate(starts):
        norm0 = lp_norm(GridFunction(lat, f0), sigma, exps.p)
        if norm0 == 0.0:
            continue
        f_vals, g_vals = f0 / norm0, np.zeros(lat.shape)
        for it in range(iterations):
            obj, g_vals = _former_half_step(f_vals, sigma, omega, coef, kernel.m, exps.q)
            trace.append((t, 2 * it, obj))
            if obj > best:
                best, best_pair = obj, (f_vals.copy(), g_vals.copy())
            if obj == 0.0:
                break
            obj, f_vals = _former_half_step(g_vals, omega, sigma, coef, kernel.m, exps.p_prime)
            trace.append((t, 2 * it + 1, obj))
            if obj > best:
                best, best_pair = obj, (f_vals.copy(), g_vals.copy())
    if indicator_pair is not None and floor_value >= best:
        best_pair = indicator_pair
    if best_pair is None:
        best_pair = (np.zeros(lat.shape), np.zeros(lat.shape))
    return max(best, floor_value, 0.0), tuple(trace), floor_value, best_pair


def _assert_batch_matches_former(kernel, sigma, omega, exps, **kwargs):
    est = norm_estimate(kernel, sigma, omega, exps, **kwargs)
    lower, trace, floor, (f, g) = _former_norm_estimate(kernel, sigma, omega, exps, **kwargs)
    assert est.trace == trace
    assert np.float64(est.lower_bound).tobytes() == np.float64(lower).tobytes()
    assert np.float64(est.indicator_floor).tobytes() == np.float64(floor).tobytes()
    assert est.best_f.values.tobytes() == f.tobytes()
    assert est.best_g.values.tobytes() == g.tobytes()
    return est


def _kernel_exps(dim, m):
    n = dim - m
    exps = Exponents(p=2.0, q=4.0, alpha=0.5 * m, beta=0.5 * n, m=m, n=n, theta=1.0)
    return KernelHandle.from_exponents(exps), exps


@pytest.mark.parametrize(
    "dim, m, depth",
    [(2, 1, depth) for depth in range(2, 7)] + [(3, 1, 3), (3, 2, 3)],
)
def test_batched_starts_match_former_loop(dim, m, depth):
    lat = make_lattice(dim, depth)
    kernel, exps = _kernel_exps(dim, m)
    est = _assert_batch_matches_former(
        kernel, rand_w(lat, 61 + depth), rand_w(lat, 71 + depth), exps, iterations=4, seed=depth
    )
    assert {t for t, _, _ in est.trace} == {0, 1, 2, 3}


def test_batched_starts_match_former_loop_with_a_table_kernel():
    lat = make_lattice(2, 4)
    rng = substream(5, 9300)
    vals = rng.uniform(0.0, 4.0, size=(5, 5))
    vals[rng.random(vals.shape) < 0.2] = 0.0
    table = KernelHandle.from_table(
        {(a, b): float(vals[a, b]) for a in range(5) for b in range(5)}, 1, 1
    )
    for seed in range(3):
        sig, om = rand_w(lat, 611 + seed), rand_w(lat, 711 + seed)
        _assert_batch_matches_former(table, sig, om, _exps(), iterations=3, seed=seed)


@pytest.mark.parametrize("duplicate", [False, True])
def test_batched_starts_match_former_loop_on_explicit_families(duplicate):
    # a family_of family passes per-rectangle coefficient arrays, a
    # duplicated rectangle counting twice, and its floor rectangle seeds
    # a fourth start
    lat = make_lattice(2, 4)
    family = _case_family(lat, 1, substream(3, 9400), 9)
    if not duplicate:
        family = family_of(lat, family.rects[:-1])
    first = family.rects[0]
    li, lj = first.i_cube.level, first.j_cube.level
    coef = forms._level_coefs(HALF, lat, family)[li][lj]
    want = (1 + duplicate) * HALF.level_value(li, lj)
    assert coef[first.i_cube.index + first.j_cube.index] == want
    sig, om = rand_w(lat, 621), rand_w(lat, 721)
    est = _assert_batch_matches_former(HALF, sig, om, _exps(), family=family, iterations=3, seed=4)
    assert {t for t, _, _ in est.trace} == {0, 1, 2, 3}


@pytest.mark.parametrize("iterations", [0, 1])
def test_batched_starts_match_former_loop_for_few_iterations(iterations):
    lat = make_lattice(2, 4)
    est = _assert_batch_matches_former(
        HALF, rand_w(lat, 631), rand_w(lat, 731), _exps(), iterations=iterations, seed=2
    )
    assert len(est.trace) == 8 * iterations


def test_zero_omega_ends_every_start_after_its_first_half_step():
    lat = make_lattice(2, 3)
    zero = Weight(lat, np.zeros(lat.shape))
    est = _assert_batch_matches_former(HALF, rand_w(lat, 7), zero, _exps(), iterations=3, seed=1)
    assert est.trace == tuple((t, 0, 0.0) for t in range(3))
    assert not est.best_g.values.any()


def test_batched_starts_match_former_loop_on_a_zero_block():
    for dim, m in ((2, 1), (3, 2)):
        lat = make_lattice(dim, 3)
        kernel, exps = _kernel_exps(dim, m)
        sig = _case_weight(lat, "zero_block", 17)
        _assert_batch_matches_former(kernel, sig, rand_w(lat, 18), exps, iterations=3, seed=5)
        _assert_batch_matches_former(kernel, rand_w(lat, 18), sig, exps, iterations=3, seed=5)


# ---------------------------------------------------------------------------
# the pyramid operator against the former box-list formulas
#
# The former half-step gathered every family box's f-sigma mass through the
# 2^d corners of a prefix table, scattered K * mass back by corner
# differences and cumulated; the former bilinear form summed K * f-mass *
# g-mass over the gathered boxes.  Both are kept here as the reference, in
# exact integer arithmetic: each mass and each cell of the image is the
# correctly rounded exact sum, and the bilinear form a math.fsum, so a cell
# whose exact image is 0 (it lies only in rectangles of zero mass) reads 0.


def _former_scatter(shape, boxes, coef):
    ints, shift = _exact(coef)
    d = len(shape)
    diff = np.zeros(tuple(s + 1 for s in shape), dtype=object)
    for corner in iproduct((0, 1), repeat=d):
        idx = tuple(boxes[:, k, corner[k]] for k in range(d))
        np.add.at(diff, idx, -ints if sum(corner) % 2 else ints)
    for axis in range(d):
        diff = np.cumsum(diff, axis=axis)
    return _rounded(diff[tuple(slice(0, s) for s in shape)], shift)


def _former_masses(family, f, w):
    (tab, shift), d = _mass_table(f, w), family.boxes.shape[1]
    out = 0
    for corner in iproduct((0, 1), repeat=d):
        term = tab[tuple(family.boxes[:, k, corner[k]] for k in range(d))]
        out = out + (-term if (d - sum(corner)) % 2 else term)
    return _rounded(out, shift)


def _former_image(kernel, family, f, w):
    coef = _level_values(kernel, family.levels) * _former_masses(family, f, w)
    return _former_scatter(w.lattice.shape, family.boxes, coef)


def _former_bilinear(kernel, sigma, omega, f, g, family):
    kv = _level_values(kernel, family.levels)
    terms = kv * _former_masses(family, f, sigma) * _former_masses(family, g, omega)
    return math.fsum(terms.tolist())


def _ulps(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64)), initial=0))


def _case_weight(lat, kind, seed):
    if kind == "cascade":
        return gen_weight(lat, {"kind": "cascade", "beta": 0.7, "seed": seed})
    w = rand_w(lat, seed, rough=0.8)
    if kind == "lognormal":
        return w
    # a zero block, a quarter of the first axis by half of every other
    # (the whole box at depth 0)
    cells = lat.cells_per_axis
    dens = w.density.copy()
    block = (slice(cells // 4, max(cells // 2, 1)),)
    dens[block + (slice(cells // 4, max(3 * cells // 4, 1)),) * (lat.dim - 1)] = 0.0
    return Weight(lat, dens)


def _case_family(lat, m, rng, count):
    """count random standard-grid rectangles plus a duplicate of the first."""
    n = lat.dim - m
    gi, gj = standard_grid(m, 0, lat.depth), standard_grid(n, 0, lat.depth)
    rects = []
    for _ in range(count):
        li, lj = (int(v) for v in rng.integers(0, lat.depth + 1, size=2))
        ii = tuple(int(v) for v in rng.integers(0, 1 << li, size=m))
        jj = tuple(int(v) for v in rng.integers(0, 1 << lj, size=n))
        rects.append(DyadicRect(Cube(gi, li, ii), Cube(gj, lj, jj)))
    return family_of(lat, rects + rects[:1])


@st.composite
def _form_cases(draw):
    dim = draw(st.integers(2, 4))
    m = draw(st.integers(1, dim - 1))
    depth = draw(st.integers(0, min(5, 12 // dim)))
    return (
        dim,
        m,
        depth,
        draw(st.integers(0, 2**20)),
        draw(st.sampled_from(["cascade", "lognormal", "zero_block"])),
        draw(st.booleans()),
        draw(st.sampled_from([0, 1, 5, 40])),
    )


@settings(max_examples=80, deadline=None)
@given(_form_cases())
def test_pyramid_image_and_bilinear_match_former_formulas(case):
    dim, m, depth, seed, weight, table, count = case
    n = dim - m
    lat = make_lattice(dim, depth)
    rng = substream(seed, 9200)
    if table:
        vals = rng.uniform(0.0, 10.0, size=(depth + 1, depth + 1))
        vals[rng.random(vals.shape) < 0.2] = 0.0
        kernel = KernelHandle.from_table(
            {(li, lj): float(vals[li, lj]) for li in range(depth + 1) for lj in range(depth + 1)},
            m,
            n,
        )
    else:
        alpha, beta = m * rng.uniform(0.1, 0.9), n * rng.uniform(0.1, 0.9)
        kernel = KernelHandle.product_frac(alpha, beta, m, n)
    sigma = _case_weight(lat, weight, seed)
    omega = _case_weight(lat, "lognormal", seed + 1)
    vals = np.exp(0.7 * rng.standard_normal((2,) + lat.shape))
    vals[rng.random(vals.shape) < 0.2] = 0.0
    f, g = GridFunction(lat, vals[0]), GridFunction(lat, vals[1])
    family = _case_family(lat, m, rng, count) if count else None
    full = dyadic_family(lat, m) if family is None else family
    tol = 8 * (depth + 1)

    coef = forms._coef_columns(forms._level_coefs(kernel, lat, family), lat, m)
    got = forms._dyadic_image(f.values * sigma.density * lat.cell_volume, lat, m, coef)
    want = _former_image(kernel, full, f, sigma)
    pos = got > 0.0
    assert _ulps(got[pos], want[pos]) <= tol
    assert np.all(want[~pos] == 0.0)

    total = bilinear_form(kernel, sigma, omega, f, g, family).total
    want_total = _former_bilinear(kernel, sigma, omega, f, g, full)
    if total > 0.0:
        assert _ulps(total, want_total) <= tol
    else:
        assert want_total == 0.0


def test_default_paths_never_materialize_the_family(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dyadic_family called on a default path")

    monkeypatch.setattr(forms, "dyadic_family", refuse)
    lat = make_lattice(2, 4)
    sig, om = rand_w(lat, 31), rand_w(lat, 32)
    f, g = rand_f(lat, 33), rand_f(lat, 34)
    table = KernelHandle.from_table(
        {(li, lj): 1.0 + li + 0.5 * lj for li in range(5) for lj in range(5)}, 1, 1
    )
    for kernel in (HALF, table):
        assert bilinear_form(kernel, sig, om, f, g).total > 0.0
        assert goodbad_split(kernel, sig, om, f, g, GoodnessParams(0.25, 2)).total > 0.0
        assert norm_estimate(kernel, sig, om, _exps(), iterations=2).lower_bound > 0.0


def test_misaligned_family_box_raises_alignment_error():
    lat = make_lattice(2, 3)
    w = rand_w(lat, 41)
    one = GridFunction(lat, np.ones(lat.shape))
    # a level-(1, 2) pair whose first side starts half a cube off its grid
    boxes = np.array([[[2, 6], [2, 4]]], dtype=np.int64)
    family = RectFamily(1, 1, boxes, np.array([[1, 2]], dtype=np.int64), "custom")
    with pytest.raises(AlignmentError):
        norm_estimate(HALF, w, w, _exps(), family=family, iterations=1)
    with pytest.raises(AlignmentError):
        bilinear_form(HALF, w, w, one, one, family)


def test_norm_estimate_table_kernel_on_default_family():
    # A table holding the product kernel's level values runs the same
    # half-steps bit for bit.  Its indicator floor is the max, level pair by
    # level pair, of the no-bump characteristic's terms, and its rectangle
    # seeds the indicator-pair start (start 3) as the product kernel's
    # does; here the two floors pick the same rectangle, so every start
    # runs the same.
    lat = make_lattice(2, 4)
    table = KernelHandle.from_table(
        {(li, lj): HALF.level_value(li, lj) for li in range(5) for lj in range(5)}, 1, 1
    )
    for seed in range(3):
        sig, om = rand_w(lat, 601 + seed), rand_w(lat, 701 + seed)
        want = norm_estimate(HALF, sig, om, _exps(), iterations=3, seed=seed)
        got = norm_estimate(table, sig, om, _exps(), iterations=3, seed=seed)
        explicit = norm_estimate(
            table, sig, om, _exps(), family=dyadic_family(lat, 1), iterations=3, seed=seed
        )
        assert got.trace == explicit.trace
        assert {t for t, _, _ in got.trace} == {0, 1, 2, 3}
        rect = forms._indicator_floor(table, sig, om, _exps(), None)[1]
        assert rect == forms._indicator_floor(HALF, sig, om, _exps(), None)[1]
        assert got.trace == want.trace
        assert got.indicator_floor == explicit.indicator_floor
        assert got.indicator_floor == want.indicator_floor
        best = max(obj for _, _, obj in got.trace)
        assert got.lower_bound == max(best, got.indicator_floor)


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.3, 0.7), (0.1, 0.3)])
def test_table_of_the_product_kernel_agrees_bit_for_bit(alpha, beta):
    # K comes only from level_value, so a table holding the product
    # kernel's level values gives the same floor, norm estimate and
    # characteristics, witnesses included, at any alpha and beta
    lat = make_lattice(2, 4)
    kernel = KernelHandle.product_frac(alpha, beta, 1, 1)
    table = KernelHandle.from_table(
        {(li, lj): kernel.level_value(li, lj) for li in range(5) for lj in range(5)}, 1, 1
    )
    exps = Exponents(p=2.0, q=4.0, alpha=alpha, beta=beta, m=1, n=1, theta=1.5)
    for seed in range(3):
        sig, om = rand_w(lat, 901 + seed), rand_w(lat, 911 + seed)
        for family in (None, dyadic_family(lat, 1)):
            want, got = (forms._indicator_floor(k, sig, om, exps, family) for k in (kernel, table))
            assert got == want
            want, got = (
                norm_estimate(k, sig, om, exps, family=family, iterations=2, seed=seed)
                for k in (kernel, table)
            )
            assert (got.indicator_floor, got.trace) == (want.indicator_floor, want.trace)
        for kind in ("no_bump", "product_bump", "half_bump_omega"):
            for fam in ("dyadic", "onethird"):
                want, got = (characteristic(kind, k, sig, om, exps, family=fam) for k in (kernel, table))
                assert (got.value, got.witness) == (want.value, want.witness)
                for k in (kernel, table):
                    assert characteristic_at(kind, k, want.witness, sig, om, exps) == want.value


@pytest.mark.parametrize("explicit", [False, True])
def test_table_kernel_floor_returns_its_normalized_indicator_pair(explicit):
    # with no iterations the floor wins, and the returned pair is the
    # normalized indicator pair of the floor's first maximizing rectangle,
    # which attains the floor
    lat = make_lattice(2, 5)
    table = KernelHandle.from_table(
        {(li, lj): HALF.level_value(li, lj) for li in range(6) for lj in range(6)}, 1, 1
    )
    sig, om = rand_w(lat, 811), rand_w(lat, 812)
    family = dyadic_family(lat, 1)
    est = norm_estimate(
        table, sig, om, _exps(), family=family if explicit else None, iterations=0
    )
    exps = _exps()
    masses = [
        np.array([integrate(w, Rect(tuple(b[:, 0]), tuple(b[:, 1]))) for b in family.boxes])
        for w in (sig, om)
    ]
    vals = (
        _level_values(table, family.levels)
        * masses[0] ** (1 / exps.p_prime)
        * masses[1] ** (1 / exps.q)
    )
    box = family.boxes[int(np.argmax(vals))]
    ind = np.zeros(lat.shape)
    ind[tuple(slice(int(a), int(b)) for a, b in box)] = 1.0
    f_norm = lp_norm(GridFunction(lat, ind), sig, exps.p)
    g_norm = lp_norm(GridFunction(lat, ind), om, exps.q_prime)
    assert est.lower_bound == est.indicator_floor > 0.0
    assert np.array_equal(est.best_f.values, ind / f_norm)
    assert np.array_equal(est.best_g.values, ind / g_norm)
    form = bilinear_form(table, sig, om, est.best_f, est.best_g).total
    assert form >= est.lower_bound * (1 - 1e-12)


_NO_MA = """
import sys
import numpy as np
from dyadlab import (Cube, DyadicRect, Exponents, KernelHandle, Weight, dyadic_family,
                     family_of, make_lattice, norm_estimate, standard_grid)
lat = make_lattice(2, 3)
w = Weight(lat, np.linspace(0.5, 2.0, lat.cell_count))
grid = standard_grid(1, 0, 3)
if sys.argv[1] == "dyadic":
    family = dyadic_family(lat, 1)
else:
    family = family_of(lat, [DyadicRect(Cube(grid, 1, (0,)), Cube(grid, 2, (1,))),
                             DyadicRect(Cube(grid, 0, (0,)), Cube(grid, 3, (5,)))])
exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, m=1, n=1, theta=1.0)
norm_estimate(KernelHandle.product_frac(0.5, 0.5, 1, 1), w, w, exps, family=family, iterations=2)
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("family", ["dyadic", "explicit"])
def test_norm_on_explicit_families_does_not_import_numpy_ma(family):
    # the first np.unique call in a process imports numpy.ma (about 34 ms
    # and 1.7 MB), so explicit families key their level pairs by bincount
    src = str(Path(dyadlab.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MA, family], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_indicator_floor_takes_the_first_tie_in_product_order():
    # On the constant weight 1 at 2D depth 4 every rectangle of a level
    # pair has mass 2^-(li + lj), so a table kernel of 2^(3(li + lj)/4) on
    # the pairs with li + lj = 4 (0 elsewhere) ties every rectangle of
    # those five pairs at exactly 1.  The pyramids sum the finest
    # first-factor level first, so the first tie they meet is in pair
    # (4, 0); the floor's witness is the first in product order, pair
    # (0, 4) at index (0, 0), with or without the explicit family.
    lat = make_lattice(2, 4)
    w = Weight(lat, np.ones(lat.shape))
    table = KernelHandle.from_table(
        {(a, b): 8.0 if a + b == 4 else 0.0 for a in range(5) for b in range(5)}, 1, 1
    )
    grid = standard_grid(1, 0, lat.depth)
    want = DyadicRect(Cube(grid, 0, (0,)), Cube(grid, 4, (0,)))
    for family in (None, dyadic_family(lat, 1)):
        value, rect = forms._indicator_floor(table, w, w, _exps(), family)
        assert value == 1.0
        assert rect == want
