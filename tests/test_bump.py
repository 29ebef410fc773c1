"""Bump functional and characteristic tests.

Closed-form oracles (sqrt(2) for the two-step density, exponent arithmetic
for the Lebesgue characteristics) were fixed before implementation.
"""
import math
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import (
    Cube,
    DomainError,
    DyadicRect,
    Exponents,
    KernelHandle,
    PowerKernel,
    Rect,
    ResourceError,
    ShapeError,
    Weight,
    bump_cube,
    bump_rect,
    characteristic,
    characteristic_at,
    gen_weight,
    make_lattice,
    random_partition,
    slice_profile,
    substream,
)
from dyadlab import bump, lattice
from dyadlab.bump import _bump_map
from dyadlab.embed import _pyramids, _slice
from dyadlab.grids import onethird_grids, standard_grid
from dyadlab.lattice import box_mass, power_integrate


def lebesgue(lat):
    return gen_weight(lat, {"kind": "constant", "value": 1.0})


def rand_w(lat, seed, rough=0.6):
    return gen_weight(lat, {"kind": "random_lognormal", "seed": seed, "roughness": rough})


# ---------------------------------------------------------------------------
# bump on cubes and rectangles


def test_bump_cube_lebesgue():
    lat = make_lattice(1, 3)
    w = lebesgue(lat)
    q = Rect((0,), (8,))
    assert bump_cube(q, w, 2.0) == 1.0
    assert bump_cube(q, w, 1.0) == 1.0


def test_bump_cube_two_step_density():
    # u = 2 on [0,1/2), 0 on [1/2,1): |Q|^(1/2) (4 * 1/2)^(1/2) = sqrt(2)
    lat = make_lattice(1, 2)
    w = Weight(lat, [2.0, 2.0, 0.0, 0.0])
    q = Rect((0,), (4,))
    assert abs(bump_cube(q, w, 2.0) - math.sqrt(2.0)) < 1e-14
    assert bump_cube(q, w, 1.0) == 1.0


def test_bump_cube_validation():
    lat = make_lattice(2, 2)
    w = lebesgue(lat)
    with pytest.raises(DomainError):
        bump_cube(Rect((0, 0), (4, 4)), w, 0.5)
    with pytest.raises(ShapeError):
        bump_cube(Rect((0,), (4,)), w, 2.0)


def test_bump_rect_lebesgue_and_separable():
    lat2 = make_lattice(2, 4)
    w = lebesgue(lat2)
    v = bump_rect(Rect((0,), (8,)), Rect((0,), (16,)), w, 3.0)
    assert abs(v - 0.5) < 1e-14

    lat1 = make_lattice(1, 4)
    rng = np.random.default_rng(5)
    u1 = rng.uniform(0.1, 3.0, 16)
    u2 = rng.uniform(0.1, 3.0, 16)
    prod = Weight(lat2, np.outer(u1, u2).reshape(-1))
    i_rect, j_rect = Rect((3,), (11,)), Rect((4,), (12,))
    lhs = bump_rect(i_rect, j_rect, prod, 2.5)
    rhs = bump_cube(i_rect, Weight(lat1, u1), 2.5) * bump_cube(j_rect, Weight(lat1, u2), 2.5)
    assert abs(lhs - rhs) < 1e-12 * rhs


def test_bump_dominates_mass():
    lat = make_lattice(2, 4)
    for seed in range(100):
        w = rand_w(lat, seed)
        i_rect, j_rect = Rect((2,), (10,)), Rect((5,), (13,))
        plain = bump_rect(i_rect, j_rect, w, 1.0)
        for theta in (1.5, 2.0, 3.0):
            assert plain <= bump_rect(i_rect, j_rect, w, theta) * (1 + 1e-12)


def test_bump_subadditive_over_partitions():
    for dim, depth in ((1, 8), (2, 5)):
        lat = make_lattice(dim, depth)
        for seed in range(10):
            w = rand_w(lat, seed, rough=0.8)
            parts = random_partition(lat, seed)
            whole = bump_cube(Rect((0,) * dim, (lat.cells_per_axis,) * dim), w, 1.75)
            total = sum(bump_cube(q, w, 1.75) for q in parts)
            assert total <= whole * (1 + 1e-9)


@pytest.mark.parametrize("seed, block", [(38, (20, 21)), (4, (17, 22))])
def test_zero_block_bumps_and_box_masses_are_exactly_zero(seed, block):
    # the weights of test_zero_block_has_exactly_zero_mass, on whose zero
    # block the long-double prefix table read a residual of +-5.42e-20: a
    # box's own cells sum to exactly 0 there
    rng = np.random.default_rng(seed)
    dens = np.exp(0.6 * rng.standard_normal((32, 32)))
    i, j = (int(v) for v in rng.integers(1, 30, size=2))
    assert (i, j) == block
    dens[i : i + 2, j : j + 2] = 0.0
    w = Weight(make_lattice(2, 5), dens)
    assert box_mass(w, (i / 32, j / 32), ((i + 2) / 32, (j + 2) / 32)) == 0.0
    for theta in (1.0, 1.5):
        assert bump_cube(Rect((i, j), (i + 2, j + 2)), w, theta) == 0.0
    # a box on the one-third grid inside the block
    lo, hi = (i + 1 / 3, j + 2 / 3), (i + 5 / 3, j + 4 / 3)
    for theta in (1.0, 1.5):
        assert box_mass(w, [a / 32 for a in lo], [b / 32 for b in hi], theta) == 0.0
    # a box reaching a third of a cell into positive cells reads that
    # cell's share of its mass, rounded once
    lo, hi = (i - 1 / 3, j), (i + 1, j + 1)
    got = box_mass(w, [a / 32 for a in lo], [b / 32 for b in hi])
    assert got == float(Fraction(dens[i - 1, j]) * (i - Fraction(lo[0])) / 2**10) > 0.0


def _fraction_mass(cells, lo, hi) -> float:
    """The mass of a box of cellwise values, its float edges in cell units
    taken exactly, each cell counted by the share of it the box covers,
    correctly rounded."""
    axes = []
    for a, b in zip(lo, hi):
        a, b = Fraction(a), Fraction(b)
        axes.append([(c, min(b, c + 1) - max(a, c)) for c in range(math.floor(a), math.ceil(b))])
    total = Fraction(0)
    for pick in iproduct(*axes):
        part = Fraction(float(cells[tuple(c for c, _ in pick)]))
        for _, share in pick:
            part *= share
        total += part
    return float(total)


@pytest.mark.parametrize("dim, depth", [(1, 6), (2, 4), (3, 2)])
def test_single_boxes_read_the_pyramid_bits(dim, depth):
    # bump_cube and power_integrate on every dyadic cube, and bump_rect on
    # every dyadic rectangle, sum the box's own cells as the dyadic and
    # product pyramids sum them: the same masses and bumps, bit for bit
    lat = make_lattice(dim, depth)
    n = lat.cells_per_axis
    dens = rand_w(lat, 3 * dim + depth, rough=0.9).density.copy()
    dens[(slice(1, 3),) * dim] = 0.0
    weights = [gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": dim}), Weight(lat, dens)]
    for w, theta in iproduct(weights, (1.0, 1.5)):
        cells = lattice._cellwise(lat, w.density, theta)
        for m in [None, *range(1, dim)]:
            for levels, masses in lattice._level_masses(cells, lat, m):
                sides = [n >> lv for lv in levels]
                axis_sides = [sides[0]] * dim if m is None else [sides[0]] * m + [sides[1]] * (dim - m)
                vol = 2.0 ** -sum(lat.depth - (s.bit_length() - 1) for s in axis_sides)
                for idx in np.ndindex(masses.shape):
                    rect = Rect(tuple(i * s for i, s in zip(idx, axis_sides)), tuple((i + 1) * s for i, s in zip(idx, axis_sides)))
                    bump = _bump_map(masses[idx], vol, theta)
                    if m is None:
                        assert power_integrate(w, rect, theta) == masses[idx], (levels, idx)
                        assert bump_cube(rect, w, theta) == bump, (levels, idx)
                    else:
                        i_rect, j_rect = (Rect(rect.lo[a:b], rect.hi[a:b]) for a, b in ((0, m), (m, dim)))
                        assert bump_rect(i_rect, j_rect, w, theta) == bump, (m, levels, idx)


def test_single_box_reads_are_within_two_ulps_of_exact():
    # integrate, power_integrate and box_mass on whole-cell and third-of-
    # cell boxes of a beta = 0.9 cascade, whose cells span many binades:
    # each box's own cells, summed by the compensated tree, give its exact
    # mass at the float edges to within 2 ulps
    lat = make_lattice(2, 5)
    n = lat.cells_per_axis
    w = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": 4})
    cells = {t: lattice._cellwise(lat, w.density, t) for t in (1.0, 1.5)}
    rng = substream(31, 1)
    for _ in range(60):
        lo = [int(v) for v in rng.integers(0, n, size=2)]
        hi = [int(rng.integers(a + 1, n + 1)) for a in lo]
        assert _ulps(lattice.integrate(w, Rect(tuple(lo), tuple(hi))), _fraction_mass(cells[1.0], lo, hi)) <= 2
        assert _ulps(power_integrate(w, Rect(tuple(lo), tuple(hi)), 1.5), _fraction_mass(cells[1.5], lo, hi)) <= 2
        ticks = sorted(int(v) for v in rng.integers(0, 3 * n + 1, size=4))
        lo, hi = [ticks[0] / 3, ticks[2] / 3], [ticks[1] / 3, ticks[3] / 3]
        for t, c in cells.items():
            assert _ulps(box_mass(w, [a / n for a in lo], [b / n for b in hi], t), _fraction_mass(c, lo, hi)) <= 2


def test_random_partition_tiles():
    lat = make_lattice(2, 4)
    parts = random_partition(lat, 3)
    covered = np.zeros(lat.shape, dtype=int)
    for q in parts:
        covered[q.lo[0] : q.hi[0], q.lo[1] : q.hi[1]] += 1
    assert covered.min() == covered.max() == 1


def _former_random_partition(lattice, seed: int, split_prob: float = 0.7) -> list[Rect]:
    """The former partition walk, one scalar uniform draw per split test."""
    rng = substream(seed, 404)
    out = []
    stack = [(0, (0,) * lattice.dim)]
    while stack:
        level, idx = stack.pop()
        if level < lattice.depth and rng.uniform() < split_prob:
            for corner in iproduct((0, 1), repeat=lattice.dim):
                stack.append((level + 1, tuple(2 * idx[k] + corner[k] for k in range(lattice.dim))))
        else:
            scale = lattice.cells_per_axis >> level
            out.append(Rect(tuple(i * scale for i in idx), tuple((i + 1) * scale for i in idx)))
    return out


@pytest.mark.parametrize("shape", [(1, 8), (2, 5), (3, 3), (2, 6)])
@pytest.mark.parametrize("split_prob", [0.3, 0.7, 0.95])
def test_random_partition_matches_scalar_draws(shape, split_prob):
    # chunked draws read the same doubles in the same order, so every
    # partition is the former one; at 2D depth 6 and split_prob 0.95,
    # seeds 57, 4300 and 4800 take over 1024 draws, more than one chunk
    lat = make_lattice(*shape)
    for seed in (0, 1, 57, 4300, 4800):
        want = _former_random_partition(lat, seed, split_prob)
        assert random_partition(lat, seed, split_prob) == want
# ---------------------------------------------------------------------------
# slices and the iterated identity


def test_slice_profile_constant():
    lat = make_lattice(2, 3)
    w = lebesgue(lat)
    prof = slice_profile(Rect((0,), (4,)), w, 2.0)
    assert prof.lattice.dim == 1
    assert np.allclose(prof.density, 0.5, rtol=1e-15, atol=0)


def test_slice_profile_separable():
    lat2 = make_lattice(2, 4)
    lat1 = make_lattice(1, 4)
    rng = np.random.default_rng(11)
    u1 = rng.uniform(0.2, 2.0, 16)
    u2 = rng.uniform(0.2, 2.0, 16)
    w = Weight(lat2, np.outer(u1, u2).reshape(-1))
    j_rect = Rect((6,), (14,))
    prof = slice_profile(j_rect, w, 1.5)
    want = u1 * bump_cube(j_rect, Weight(lat1, u2), 1.5)
    assert np.allclose(prof.density, want, rtol=1e-12)


def test_iterated_identity():
    lat = make_lattice(2, 5)
    rng = np.random.default_rng(23)
    worst = 0.0
    for seed in range(100):
        w = rand_w(lat, seed, rough=0.7)
        li, lj = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        span_i, span_j = 32 >> li, 32 >> lj
        ki = int(rng.integers(0, 1 << li))
        kj = int(rng.integers(0, 1 << lj))
        i_rect = Rect((ki * span_i,), ((ki + 1) * span_i,))
        j_rect = Rect((kj * span_j,), ((kj + 1) * span_j,))
        lhs = bump_rect(i_rect, j_rect, w, 2.0)
        rhs = bump_cube(i_rect, slice_profile(j_rect, w, 2.0), 2.0)
        worst = max(worst, abs(lhs - rhs) / rhs)
    assert worst <= 1e-9


def test_slice_profile_validation():
    lat = make_lattice(2, 3)
    w = lebesgue(lat)
    with pytest.raises(ShapeError):
        slice_profile(Rect((0, 0), (8, 8)), w, 2.0)
    with pytest.raises(DomainError):
        slice_profile(Rect((0,), (9,)), w, 2.0)


def _with_zero_block(lat, seed):
    """A lognormal weight whose first cells along the first axis are 0
    everywhere, and with a 2-cell zero corner: massless slices."""
    dens = rand_w(lat, seed, rough=0.9).density.copy()
    dens[:2] = 0.0
    dens[(slice(0, 2),) * lat.dim] = 0.0
    return Weight(lat, dens)


@pytest.mark.parametrize("dim,m,depth", [(2, 1, 5), (3, 1, 3), (3, 2, 3), (4, 2, 2)])
def test_level_profiles_match_slice_profile(dim, m, depth):
    # the rectangle proof chain reads the profile of every dyadic J of a
    # level from one pyramid; slice_profile sums J's own cells by the same
    # tree, so each profile has its bits; the zero block makes some vanish
    lat = make_lattice(dim, depth)
    n = dim - m
    f = np.ones(lat.shape)
    for w in (rand_w(lat, 30 + dim + m, rough=0.9), _with_zero_block(lat, 40 + dim + m)):
        for theta in (1.0, 1.5, 2.0):
            for level, (_, b, mf) in enumerate(_pyramids(f, w.density, make_lattice(n, depth), theta)):
                prof = _slice(b, mf, n)[1]
                side = lat.cells_per_axis >> level
                assert prof.shape == (1 << level,) * n + lat.shape[:m]
                for j in np.ndindex(*prof.shape[:n]):
                    j_rect = Rect(tuple(i * side for i in j), tuple((i + 1) * side for i in j))
                    want = slice_profile(j_rect, w, theta).density
                    assert prof[j].tobytes() == want.tobytes(), (theta, level, j)


def _ulps(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64)), initial=0))


@pytest.mark.parametrize(
    "dim,depth,j_rect",
    [
        (2, 4, Rect((6,), (14,))),
        (2, 4, Rect((3,), (8,))),
        (2, 4, Rect((0,), (16,))),
        (3, 3, Rect((1, 2), (6, 4))),
        (3, 3, Rect((3,), (8,))),
    ],
)
def test_slice_profile_matches_fsum_on_any_j(dim, depth, j_rect):
    # J offset, not 2^k cells wide, or not a cube is zero-padded to 2^k
    # cells per axis and summed by the tree: each slice's value is within
    # 1 ulp of the bump of its math.fsum mass, and a massless slice is 0
    lat = make_lattice(dim, depth)
    n = j_rect.dim
    m_cells = lat.cells_per_axis ** (dim - n)
    vol = lat.cell_side**n * j_rect.cells
    for seed in range(3):
        w = _with_zero_block(lat, 60 + seed)
        block = w.density[(..., *(slice(a, b) for a, b in zip(j_rect.lo, j_rect.hi)))]
        for theta in (1.0, 1.5, 2.0):
            cells = (np.power(block, theta) * lat.cell_side**n).reshape(m_cells, -1)
            mass = np.array([math.fsum(row) for row in cells.tolist()])
            got = slice_profile(j_rect, w, theta).density.ravel()
            assert _ulps(got, _bump_map(mass, vol, theta)) <= 1, (seed, theta)
            assert (mass == 0.0).any()
            assert (got[mass == 0.0] == 0.0).all()


# ---------------------------------------------------------------------------
# characteristics


def _exps(alpha, beta, theta=1.0, p=2.0, q=4.0):
    return Exponents(p=p, q=q, alpha=alpha, beta=beta, theta=theta)


def test_characteristic_flat_exponent_lebesgue():
    # alpha = 1/4 makes every rectangle contribute 1 (up to float pow noise,
    # which also decides the argmax among the all-tied rectangles)
    lat = make_lattice(2, 4)
    w = lebesgue(lat)
    exps = _exps(0.25, 0.25)
    res = characteristic("no_bump", None, w, w, exps, family="dyadic")
    assert res.value == pytest.approx(1.0, rel=1e-12)
    grid = res.witness.i_cube.grid
    for li, lj, idx in ((0, 0, 0), (3, 1, 2), (4, 4, 9)):
        spot = characteristic_at(
            "no_bump", None, DyadicRect(Cube(grid, li, (idx,)), Cube(grid, lj, (0,))), w, w, exps
        )
        assert spot == pytest.approx(1.0, rel=1e-12)


def test_characteristic_positive_exponent_lebesgue():
    # alpha = 1/2 gives each factor exponent 1/4 > 0: the unit box wins
    lat = make_lattice(2, 4)
    w = lebesgue(lat)
    res = characteristic("product_bump", None, w, w, _exps(0.5, 0.5, theta=2.0), family="dyadic")
    assert res.value == 1.0
    wit = res.witness
    assert isinstance(wit, DyadicRect)
    assert wit.i_cube.level == 0 and wit.j_cube.level == 0
    finest = characteristic_at(
        "product_bump",
        None,
        DyadicRect(Cube(wit.i_cube.grid, 4, (0,)), Cube(wit.j_cube.grid, 4, (0,))),
        w,
        w,
        _exps(0.5, 0.5, theta=2.0),
    )
    assert finest == pytest.approx(2.0 ** (-4 * 0.25) * 2.0 ** (-4 * 0.25), rel=1e-12)


def test_characteristic_zero_weight():
    lat = make_lattice(2, 3)
    res = characteristic(
        "half_bump_omega",
        None,
        lebesgue(lat),
        gen_weight(lat, {"kind": "constant", "value": 0.0}),
        _exps(0.5, 0.5, theta=1.5),
    )
    assert res.value == 0.0


def test_characteristic_theta_monotone():
    lat = make_lattice(2, 4)
    exps1 = _exps(0.5, 0.5, theta=1.0)
    exps2 = _exps(0.5, 0.5, theta=1.7)
    for seed in range(50):
        sigma = rand_w(lat, seed)
        omega = rand_w(lat, seed + 1000)
        v1 = characteristic("product_bump", None, sigma, omega, exps1).value
        v2 = characteristic("product_bump", None, sigma, omega, exps2).value
        assert v1 <= v2 * (1 + 1e-12)


def test_half_bump_below_product_bump():
    lat = make_lattice(2, 4)
    exps = _exps(0.7, 0.3, theta=1.6)
    for seed in range(20):
        sigma = rand_w(lat, seed)
        omega = rand_w(lat, seed + 500)
        half = characteristic("half_bump_omega", None, sigma, omega, exps).value
        full = characteristic("product_bump", None, sigma, omega, exps).value
        assert half <= full * (1 + 1e-12)


def test_witness_reevaluates_exactly():
    lat = make_lattice(2, 4)
    sigma = rand_w(lat, 7)
    omega = rand_w(lat, 8)
    for kind, family in (
        ("product_bump", "dyadic"),
        ("half_bump_omega", "dyadic"),
        ("no_bump", "onethird"),
        ("product_bump", "onethird"),
    ):
        exps = _exps(0.6, 0.4, theta=1.5)
        res = characteristic(kind, None, sigma, omega, exps, family=family)
        again = characteristic_at(kind, None, res.witness, sigma, omega, exps)
        assert again == res.value, kind


def test_no_bump_onethird_extends_dyadic():
    lat = make_lattice(2, 4)
    exps = _exps(0.5, 0.5)
    for seed in (3, 4, 5):
        sigma = rand_w(lat, seed)
        omega = rand_w(lat, seed + 50)
        dy = characteristic("no_bump", None, sigma, omega, exps, family="dyadic").value
        th = characteristic("no_bump", None, sigma, omega, exps).value
        assert th >= dy


def test_one_param_lebesgue_and_reeval():
    lat = make_lattice(1, 5)
    w = lebesgue(lat)
    exps = _exps(0.25, 0.5, theta=2.0)
    res = characteristic("one_param", None, w, w, exps)
    # flat-exponent case again: everything ties at 1 up to pow noise
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert isinstance(res.witness, Cube)
    sigma = rand_w(lat, 2)
    omega = rand_w(lat, 3)
    res = characteristic("one_param", None, sigma, omega, exps)
    assert characteristic_at("one_param", None, res.witness, sigma, omega, exps) == res.value
    res = characteristic("one_param", None, sigma, omega, exps, family="onethird")
    assert characteristic_at("one_param", None, res.witness, sigma, omega, exps) == res.value


def test_characteristic_csv_row():
    lat = make_lattice(2, 3)
    w = lebesgue(lat)
    res = characteristic("product_bump", None, w, w, _exps(0.25, 0.25, theta=1.5))
    row = res.csv_row()
    parts = row.split(",")
    assert parts[0] == "product_bump"
    assert len(parts) == 9
    assert float(parts[6]) == res.value


def test_characteristic_validation():
    lat = make_lattice(2, 3)
    w = lebesgue(lat)
    with pytest.raises(DomainError):
        characteristic("soft_bump", None, w, w, _exps(0.5, 0.5))
    with pytest.raises(DomainError):
        characteristic("no_bump", None, w, w, _exps(0.5, 0.5), family="fifth")
    with pytest.raises(ShapeError):
        characteristic("one_param", None, w, w, _exps(0.5, 0.5))
    w1 = lebesgue(make_lattice(1, 3))
    with pytest.raises(ShapeError):
        characteristic("product_bump", None, w1, w1, _exps(0.5, 0.5))
    # a table kernel serves the rectangle kinds on the level pairs it holds
    table = KernelHandle.from_table({(0, 0): 1.0}, 1, 1)
    with pytest.raises(DomainError):
        characteristic("product_bump", table, w, w, _exps(0.5, 0.5))
    grid = standard_grid(1, 0, 3)
    wit = DyadicRect(Cube(grid, 1, (0,)), Cube(grid, 2, (3,)))
    with pytest.raises(DomainError):
        characteristic_at("product_bump", table, wit, w, w, _exps(0.5, 0.5))
    one = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5)
    with pytest.raises(DomainError):
        characteristic("one_param", KernelHandle.from_table({(0, 0): 1.0}, 1, 1), w1, w1, one)
    with pytest.raises(ShapeError):
        characteristic("no_bump", KernelHandle.product_frac(0.5, 0.5, 2, 1), w, w, _exps(0.5, 0.5))
    with pytest.raises(ShapeError):
        characteristic_at("no_bump", KernelHandle.product_frac(0.5, 0.5, 1, 2), wit, w, w, _exps(0.5, 0.5))


_G1, _G2 = standard_grid(1, 0, 3), standard_grid(2, 0, 3)


@pytest.mark.parametrize(
    "kind, mn, witness",
    [
        # a box over two of three axes read 0.629
        pytest.param("no_bump", (1, 2), DyadicRect(Cube(_G1, 1, (0,)), Cube(_G1, 1, (1,))), id="1+1-on-1+2"),
        # a 1-dim cube on an m = 2 lattice read 0.939
        pytest.param("one_param", (2, 1), Cube(_G1, 1, (0,)), id="1-on-2"),
        # a 2-dim I cube on a 1+1 lattice raised IndexError
        pytest.param("no_bump", (1, 1), DyadicRect(Cube(_G2, 1, (0, 0)), Cube(_G1, 1, (1,))), id="2+1-on-1+1"),
        # a cube with more indices than its grid has axes
        pytest.param("product_bump", (1, 1), DyadicRect(Cube(_G1, 1, (0, 1)), Cube(_G1, 1, (1,))), id="index"),
        # the wrong class raised AttributeError
        pytest.param("no_bump", (1, 1), Cube(_G2, 1, (0, 0)), id="cube-for-rect"),
        pytest.param("one_param", (1, 1), DyadicRect(Cube(_G1, 1, (0,)), Cube(_G1, 1, (1,))), id="rect-for-cube"),
    ],
)
def test_characteristic_at_refuses_a_witness_of_the_wrong_shape(kind, mn, witness):
    m, n = mn
    lat = make_lattice(m if kind == "one_param" else m + n, 3)
    w = rand_w(lat, 1)
    exps = Exponents(p=2.0, q=4.0, alpha=0.5 * m, beta=0.5 * n, m=m, n=n)
    with pytest.raises(ShapeError):
        characteristic_at(kind, None, witness, w, w, exps)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["exponents", "prefix", "bump_cube", "slice_profile"])
def test_non_finite_theta_is_refused(entry, theta):
    # NaN passes theta < 1.0, and theta = inf made every bump a plain mass
    w = lebesgue(make_lattice(2, 2))
    calls = {
        "exponents": lambda: Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=theta),
        "prefix": lambda: w.prefix(theta),
        "bump_cube": lambda: bump_cube(Rect((0, 0), (4, 4)), w, theta),
        "slice_profile": lambda: slice_profile(Rect((0,), (4,)), w, theta),
    }
    with pytest.raises(DomainError):
        calls[entry]()


def test_characteristic_with_no_comparable_value_is_refused():
    # theta = 1e308 overflows density**theta to inf where the density
    # exceeds 1 and to 0 below, so every product is inf * 0 = NaN and no
    # value is the first maximum
    lat = make_lattice(2, 3)
    sigma, omega = (gen_weight(lat, {"kind": "constant", "value": v}) for v in (2.0, 0.5))
    with pytest.raises(DomainError):
        characteristic("product_bump", None, sigma, omega, _exps(0.5, 0.5, theta=1e308))


def test_exponents_validation():
    with pytest.raises(DomainError):
        Exponents(p=4.0, q=2.0, alpha=0.5, beta=0.5)
    with pytest.raises(DomainError):
        Exponents(p=2.0, q=4.0, alpha=1.5, beta=0.5)
    with pytest.raises(DomainError):
        Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=0.8)
    e = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=1.0)
    assert e.inv_theta_prime == 0.0
    assert e.p_prime == 2.0 and e.q_prime == pytest.approx(4.0 / 3.0)
    k = PowerKernel.from_exponents(e)
    assert (k.i_exp, k.j_exp) == (-0.5, -0.5)

# ---------------------------------------------------------------------------
# the grouped scan against the former per-grid loop
#
# The former characteristic, kept as the reference: one _products call per
# grid tuple and level tuple, the first maximum kept with a strict >.  It
# reads its masses through a given pair of functions, one for the standard
# grid pair (offset 0 on every axis), one for the other one-third grid
# tuples: the dyadic pyramid's level tuple and a refined pyramid built
# apart for each tuple, which the scan must reproduce bit for bit, or an
# exact oracle, which it must match to within VALUE_ULPS.

# the values' relative distance to the exact oracle, in units of 2^-53:
# masses within an ulp, through the bump and kernel powers (exponents at
# most 1 in total), plus a flipped rounding of a power or product
VALUE_ULPS = 2


def _former_level_cubes(grid, level):
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


def _standard(factors) -> bool:
    return all(not any(grid.offset(k, level) for k in range(grid.dim)) for grid, level, _ in factors)


def _pyramid_masses(w, theta, factors):
    """The dyadic pyramid's masses of the factors' level tuple, at the
    factors' cube indices."""
    lat = w.lattice
    m = None if len(factors) == 1 else factors[0][0].dim
    levels = tuple(level for _, level, _ in factors)
    masses = dict(lattice._level_masses(lattice._cellwise(lat, w.density, theta), lat, m))[levels]
    return masses[np.ix_(*[np.asarray(i) for _, _, index in factors for i in index])]


def _offset_thirds(grid, axis, level, depth):
    """A grid's level offset on one axis, in thirds of a cell."""
    return int(grid.offset(axis, level) * (3 << depth))


def _refined_masses(w, theta, factors):
    """The refined pyramid's masses of the factors' cubes, built for one
    grid tuple and level tuple: along each lattice axis in turn every cell
    split into three thirds carrying its value, halved to the level,
    padded with two zero blocks at each end and three neighbours summed,
    each cube at position 3i + o + 2 (offset o thirds of its side); the
    sums divided by 3 per axis at the end (cells scaled by 2^-7 first
    where the sums could pass the float64 range)."""
    lat = w.lattice
    a = lattice._cellwise(lat, w.density, theta)
    scale = lattice._third_scale(a, lat)
    a = a * scale
    err, picks = 0.0, []
    axes = [(grid, level, axis, idx) for grid, level, index in factors for axis, idx in enumerate(index)]
    for k, (grid, level, axis, idx) in enumerate(axes):
        a, err = (np.repeat(np.moveaxis(x, k, 0), 3, axis=0) if isinstance(x, np.ndarray) else x for x in (a, err))
        for _ in range(lat.depth - level):
            a, err = lattice._halve(a, (0,), err)
        padded = (lattice._pad(x, 2, 2) if isinstance(x, np.ndarray) else x for x in (a, err))
        a, err = (np.moveaxis(x, 0, k) for x in lattice._triple(*padded))
        picks.append(3 * np.asarray(idx) + _offset_thirds(grid, axis, level, level) + 2)
    return lattice._third_div(a, err, 3.0**lat.dim, scale)[np.ix_(*picks)]


_EXACT = {}  # (id(w), theta) -> (w, table)


def _exact_thirds(w, theta, lo, hi):
    """The masses of the boxes spanned by per-axis edge arrays lo/hi in
    thirds of a cell (clipped to the lattice), correctly rounded: the cells
    of lattice._cellwise as integers over 2^1100, each third of a cell
    carrying its cell's value, summed exactly over the box's thirds (a
    prefix table of Python ints) and divided by 3 per axis."""
    lat = w.lattice
    d, top = lat.dim, 3 << lat.depth
    cached = _EXACT.get((id(w), theta))
    if cached is None or cached[0] is not w:
        cells = lattice._cellwise(lat, w.density, theta).ravel().tolist()
        ints = np.array([n * ((1 << 1100) // q) for n, q in map(float.as_integer_ratio, cells)], dtype=object)
        ints = ints.reshape(lat.shape)
        for k in range(d):
            ints = np.repeat(ints, 3, axis=k)
        tab = np.zeros((top + 1,) * d, dtype=object)
        tab[(slice(1, None),) * d] = ints
        for k in range(d):
            tab = np.cumsum(tab, axis=k)
        cached = _EXACT[id(w), theta] = (w, tab)
    lo, hi = (np.ix_(*(np.clip(a, 0, top) for a in ends)) for ends in (lo, hi))
    total = 0
    for corner in iproduct((0, 1), repeat=d):
        term = cached[1][tuple(b if c else a for a, b, c in zip(lo, hi, corner))]
        total = total + term if (d - sum(corner)) % 2 == 0 else total - term
    return np.vectorize(lambda x: x / (3**d << 1100), otypes=[float])(total)


def _exact_masses(w, theta, factors):
    """The factor boxes' masses, correctly rounded (_exact_thirds)."""
    depth = w.lattice.depth
    lo, hi = [], []
    for grid, level, index in factors:
        side = 3 << (depth - level)
        for axis, idx in enumerate(index):
            lo.append(np.asarray(idx) * side + _offset_thirds(grid, axis, level, depth))
            hi.append(lo[-1] + side)
    return _exact_thirds(w, theta, lo, hi)


def _former_products(kind, kernel, sigma, omega, exps, factors, reads):
    levels = [(level, grid.dim) for grid, level, _ in factors]
    read = reads[0] if _standard(factors) else reads[1]
    masses = [read(w, t, factors) for w, t in zip((sigma, omega), bump._thetas(kind, exps))]
    return bump._products(kind, kernel, exps, levels, masses)


def _family_grids(family, dim, depth):
    return [standard_grid(dim, 0, depth)] if family == "dyadic" else onethird_grids(dim, 0, depth)


def _former_characteristic(kind, sigma, omega, exps, family, reads):
    kernel = KernelHandle.from_exponents(exps)
    dims = (exps.m,) if kind == "one_param" else (exps.m, exps.n)
    depth = sigma.lattice.depth
    per_grid = [
        [
            [(grid, lv, _former_level_cubes(grid, lv)) for lv in range(depth + 1)]
            for grid in _family_grids(family, dim, depth)
        ]
        for dim in dims
    ]
    best = -1.0
    best_at = None
    for grids in iproduct(*per_grid):
        for factors in iproduct(*grids):
            vals = _former_products(kind, kernel, sigma, omega, exps, factors, reads)
            k = int(np.argmax(vals))
            if vals.flat[k] > best:
                best = float(vals.flat[k])
                best_at = factors, np.unravel_index(k, vals.shape)
    factors, pos = best_at
    cubes = []
    for grid, level, index in factors:
        here, pos = pos[: grid.dim], pos[grid.dim :]
        cubes.append(Cube(grid, level, tuple(int(ks[p]) for ks, p in zip(index, here))))
    return best, cubes[0] if len(cubes) == 1 else DyadicRect(*cubes)


_BITS = (_pyramid_masses, _refined_masses)
_ORACLE = (_exact_masses, _exact_masses)


def _oracle_at(kind, witness, sigma, omega, exps):
    """The exact oracle's value of one witness."""
    cubes = (witness,) if kind == "one_param" else (witness.i_cube, witness.j_cube)
    factors = [(c.grid, c.level, [[i] for i in c.index]) for c in cubes]
    kernel = KernelHandle.from_exponents(exps)
    return float(_former_products(kind, kernel, sigma, omega, exps, factors, _ORACLE).flat[0])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(1, 1, 3), (1, 1, 4), (1, 2, 2), (2, 1, 2), (1, 0, 5), (2, 0, 3)]),
    st.sampled_from(["no_bump", "product_bump", "half_bump_omega"]),
    st.sampled_from(["onethird", "dyadic"]),
    st.sampled_from(["lognormal", "cascade", "zero_block", "constant"]),
    st.integers(0, 2**20),
)
def test_grouped_scan_matches_former_per_grid_loop(mn, kind, family, weight, seed):
    # n = 0 stands for one_param on an m-dim lattice
    m, n, depth = mn
    kind = "one_param" if n == 0 else kind
    lat = make_lattice(m + n, depth)
    specs = {
        "lognormal": {"kind": "random_lognormal", "seed": seed, "roughness": 0.8},
        "cascade": {"kind": "cascade", "beta": 0.75, "seed": seed},
        "constant": {"kind": "constant", "value": 1.0},
    }
    if weight == "zero_block":
        dens = np.random.default_rng(seed).uniform(0.5, 2.0, lat.shape)
        dens[np.random.default_rng(seed + 1).uniform(size=lat.shape) < 0.3] = 0.0
        sigma = Weight(lat, dens)
    else:
        sigma = gen_weight(lat, specs[weight])
    omega = gen_weight(lat, specs["constant" if weight == "constant" else "lognormal"])
    res = _assert_former_scan(kind, sigma, omega, family, m, max(n, 1))
    # the exact oracle: the value to within VALUE_ULPS, and the witness a
    # maximizer of the oracle's values to within the same
    exps = res.exps
    value, _ = _former_characteristic(kind, sigma, omega, exps, family, _ORACLE)
    tol = VALUE_ULPS * 2.0**-53 * value
    assert abs(res.value - value) <= tol
    assert _oracle_at(kind, res.witness, sigma, omega, exps) >= value - tol


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("kind", ["no_bump", "product_bump"])
@pytest.mark.parametrize("value", [1.0, 0.0])
def test_grouped_scan_keeps_the_first_of_all_ties(m, n, kind, value):
    # constant weights tie within grids and levels, and the zero weight
    # ties everywhere, so the scan order alone picks the witness
    lat = make_lattice(m + n, 3 if m + n == 2 else 2)
    w = gen_weight(lat, {"kind": "constant", "value": value})
    _assert_former_scan(kind, w, w, "onethird", m, n)


def _assert_former_scan(kind, sigma, omega, family, m, n):
    exps = Exponents(p=2.0, q=4.0, alpha=0.5 * m, beta=0.5 * n, m=m, n=n, theta=1.5)
    res = characteristic(kind, None, sigma, omega, exps, family=family)
    want = _former_characteristic(kind, sigma, omega, exps, family, _BITS)
    assert (res.value, res.witness) == want
    assert characteristic_at(kind, None, res.witness, sigma, omega, exps) == res.value
    return res


@pytest.mark.parametrize("m, n", [(1, 0), (2, 0), (3, 0), (1, 1), (1, 2), (2, 1)])
def test_dyadic_witnesses_reevaluate_bit_for_bit(m, n):
    # characteristic_at rebuilds a standard box's masses from its own
    # cells by the pyramid's tree, so the scan's witness, and every box of
    # every level tuple, re-evaluates to the scan's bits, for every kind
    depth = {1: 9, 2: 5, 3: 3}[m + n]
    lat = make_lattice(m + n, depth)
    sigma = gen_weight(lat, {"kind": "cascade", "beta": 0.85, "seed": m + 3 * n})
    dens = rand_w(lat, 7 * m + n, rough=0.9).density.copy()
    dens[(slice(0, 2),) * (m + n)] = 0.0
    omega = Weight(lat, dens)
    exps = Exponents(p=2.0, q=4.0, alpha=0.5 * m, beta=0.5 * max(n, 1), m=m, n=max(n, 1), theta=1.5)
    dims = (m,) if n == 0 else (m, n)
    kinds = ["one_param"] if n == 0 else ["no_bump", "product_bump", "half_bump_omega"]
    rng = np.random.default_rng(m + 10 * n)
    for kind in kinds:
        for family in ("dyadic", "onethird"):
            res = characteristic(kind, None, sigma, omega, exps, family=family)
            assert characteristic_at(kind, None, res.witness, sigma, omega, exps) == res.value
        kernel = KernelHandle.from_exponents(exps)
        for levels, vals in bump._dyadic_levels(kind, kernel, sigma, omega, exps, dims):
            pos = [int(a) for a in np.unravel_index(int(rng.integers(vals.size)), vals.shape)]
            cubes = []
            for level, dim in zip(levels, dims):
                cubes.append(Cube(standard_grid(dim, 0, depth), level, tuple(pos[:dim])))
                pos = pos[dim:]
            box = cubes[0] if n == 0 else DyadicRect(*cubes)
            idx = tuple(i for c in cubes for i in c.index)
            assert characteristic_at(kind, None, box, sigma, omega, exps) == vals[idx], levels


# ---------------------------------------------------------------------------
# the refined pyramid of the one-third grids


@pytest.mark.parametrize("m, n", [(1, 0), (2, 0), (3, 0), (1, 1), (1, 2), (2, 1)])
def test_onethird_boxes_reevaluate_bit_for_bit(m, n):
    # characteristic_at rebuilds a one-third box's masses from its own
    # cells by the refined pyramid's steps, so a random box of every grid
    # tuple, the standard one included, and every level tuple re-evaluates
    # to the scan's bits, blocks split by offset included (every case
    # splits its finest levels)
    depth = {1: 7, 2: 4, 3: 2}[m + n]
    lat = make_lattice(m + n, depth)
    sigma = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": m + 3 * n})
    dens = rand_w(lat, 5 * m + n, rough=0.9).density.copy()
    dens[(slice(0, 2),) * (m + n)] = 0.0
    omega = Weight(lat, dens)
    exps = Exponents(p=2.0, q=4.0, alpha=0.5 * m, beta=0.5 * max(n, 1), m=m, n=max(n, 1), theta=1.5)
    dims = (m,) if n == 0 else (m, n)
    kinds = ["one_param"] if n == 0 else ["no_bump", "product_bump", "half_bump_omega"]
    axis_grids = onethird_grids(1, 0, depth)
    rng = np.random.default_rng(m + 10 * n)
    for kind in kinds:
        kernel = KernelHandle.from_exponents(exps)
        seen = set()
        for offsets, levels, vals in bump._third_levels(kind, kernel, sigma, omega, exps, dims):
            pos = [int(a) for a in np.unravel_index(int(rng.integers(vals.size)), vals.shape)]
            index = [_former_level_cubes(axis_grids[u], level)[0][p] for u, level, p in zip(
                offsets, [level for level, dim in zip(levels, dims) for _ in range(dim)], pos)]
            cubes, at = [], 0
            for level, dim in zip(levels, dims):
                grid = onethird_grids(dim, 0, depth)[np.ravel_multi_index(offsets[at : at + dim], (3,) * dim)]
                cubes.append(Cube(grid, level, tuple(int(i) for i in index[at : at + dim])))
                at += dim
            box = cubes[0] if n == 0 else DyadicRect(*cubes)
            assert characteristic_at(kind, None, box, sigma, omega, exps) == vals[tuple(pos)], (offsets, levels)
            seen.add((offsets, levels))
        assert len(seen) == 3 ** (m + n) * (depth + 1) ** len(dims)


@pytest.mark.parametrize("dim, depth", [(1, 7), (2, 4), (3, 2)])
def test_adjacent_onethird_cubes_add_up_to_their_union(dim, depth):
    # a one-third grid's level cubes are the unions of their 2^d children,
    # which share their edges exactly on the refined lattice: the
    # children's masses add up to their union's to within 2 ulps
    lat = make_lattice(dim, depth)
    for w in (gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": dim}), rand_w(lat, dim, rough=1.2)):
        h = lattice._cellwise(lat, w.density)
        axis_grids = onethird_grids(1, 0, depth)
        for u in iproduct(range(3), repeat=dim):
            for level in range(depth):
                # per axis, the first block 3i + o of each level cube
                firsts = [
                    [3 * i + bump._thirds(axis_grids[k], 0, level) for i in bump._axis_cubes(axis_grids[k], level)]
                    for k in u
                ]
                for ts in iproduct(*firsts):
                    union = float(lattice._third_mass(h, lat, [(level, t) for t in ts]).flat[0])
                    parts = []
                    for half in iproduct((0, 3), repeat=dim):
                        child = [(level + 1, 2 * t + c) for t, c in zip(ts, half)]
                        if all(-2 <= t < 3 << (level + 1) for _, t in child):
                            parts.append(float(lattice._third_mass(h, lat, child).flat[0]))
                    assert abs(math.fsum(parts) - union) <= 2 * np.spacing(union), (u, level, ts)


@pytest.mark.parametrize("kind", ["no_bump", "product_bump"])
def test_cubes_off_the_refined_lattice_read_their_own_cells(kind):
    # a shifted grid's cube, or a one-third cube finer than the lattice, is
    # summed from its own cells, clipped to the unit box, each cell counted
    # by the share of it the cube covers, each factor's axes in turn: the
    # evaluator gets those masses, and the value is within VALUE_ULPS of
    # the one from exact masses at the cube's float edges
    from dyadlab.grids import sample_grid

    lat = make_lattice(2, 4)
    n = lat.cells_per_axis
    sigma = gen_weight(lat, {"kind": "cascade", "beta": 0.8, "seed": 2})
    omega = rand_w(lat, 9)
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=1.5)
    kernel = KernelHandle.from_exponents(exps)
    boxes = [
        DyadicRect(Cube(sample_grid(3, 1, 0, 6), 2, (1,)), Cube(onethird_grids(1, 0, 6)[1], 1, (0,))),
        DyadicRect(Cube(onethird_grids(1, 0, 6)[2], 5, (20,)), Cube(standard_grid(1, 0, 6), 3, (2,))),
        DyadicRect(Cube(onethird_grids(1, 0, 6)[1], 6, (-1,)), Cube(onethird_grids(1, 0, 6)[2], 6, (63,))),
    ]
    pairs = list(zip((sigma, omega), bump._thetas(kind, exps)))
    for box in boxes:
        cubes = (box.i_cube, box.j_cube)
        levels = [(c.level, 1) for c in cubes]
        lo, hi = ([min(max(float(x) * n, 0.0), n) for c in cubes for x in c.bounds()[side]] for side in (0, 1))
        hi = [max(a, b) for a, b in zip(lo, hi)]
        masses = [lattice._own_mass(lat, w.density, lo, hi, t, [(0,), (1,)]) for w, t in pairs]
        got = characteristic_at(kind, None, box, sigma, omega, exps)
        assert got == bump._products(kind, kernel, exps, levels, masses).flat[0]
        exact = [np.array(_fraction_mass(lattice._cellwise(lat, w.density, t), lo, hi)) for w, t in pairs]
        oracle = float(bump._products(kind, kernel, exps, levels, exact).flat[0])
        assert abs(got - oracle) <= VALUE_ULPS * 2.0**-53 * oracle, (box, got, oracle)


def test_onethird_scan_refuses_past_the_array_budget(monkeypatch):
    # the scan sizes its largest array, sigma's and omega's rows both
    # counted, before building any: one byte over the budget raises, and
    # at the budget the largest array built is exactly that size
    lat = make_lattice(2, 5)
    w = rand_w(lat, 4)
    exps = _exps(0.5, 0.5)
    need = 2 * 8 * lattice._ThirdPyramid(lat, 1).peak()
    monkeypatch.setattr(lattice, "ARRAY_BUDGET_BYTES", need - 1)
    refine = lattice._refine

    def refuse(*args):
        raise AssertionError("a refined array was built past the budget")

    monkeypatch.setattr(lattice, "_refine", refuse)
    with pytest.raises(ResourceError, match=f"{need} bytes, limit {need - 1}"):
        characteristic("no_bump", None, w, w, exps, family="onethird")
    largest = [0]

    def measured(fn):
        def run(*args):
            out = fn(*args)
            for x in out if isinstance(out, tuple) else (out,):
                largest[0] = max(largest[0], np.size(x))
            return out
        return run

    monkeypatch.setattr(lattice, "ARRAY_BUDGET_BYTES", need)
    for name, fn in (("_refine", refine), ("_coarser", lattice._coarser),
                     ("_triple", lattice._triple), ("_third_div", lattice._third_div)):
        monkeypatch.setattr(lattice, name, measured(fn))
    res = characteristic("no_bump", None, w, w, exps, family="onethird")
    assert 8 * largest[0] == need
    assert characteristic_at("no_bump", None, res.witness, w, w, exps) == res.value


def test_onethird_witness_walks_a_crop_of_its_level_cubes(monkeypatch):
    # a one-third witness is read by the scan's walk, sigma and omega on
    # one batch axis, refined once per lattice axis, over the level cubes
    # that hold the box: at most two per axis, so no refined array spans
    # more than 2 * 2^(L - l) cells on an axis read at level l.  The value
    # has the bits of the whole lattice's refined steps
    lat = make_lattice(2, 8)
    sigma = gen_weight(lat, {"kind": "cascade", "beta": 0.8, "seed": 4})
    omega = rand_w(lat, 8)
    exps = _exps(0.5, 0.5, theta=1.5)
    kernel = KernelHandle.from_exponents(exps)
    third = onethird_grids(1, 0, lat.depth)
    boxes = [
        DyadicRect(Cube(third[1], 0, (0,)), Cube(third[2], 0, (-1,))),
        DyadicRect(Cube(third[1], 3, (-1,)), Cube(third[0], 3, (5,))),
        DyadicRect(Cube(third[2], 3, (7,)), Cube(third[1], 8, (128,))),
        DyadicRect(Cube(third[1], 8, (255,)), Cube(third[2], 5, (0,))),
        DyadicRect(Cube(third[0], 8, (0,)), Cube(third[1], 6, (40,))),
    ]
    refine = lattice._refine
    shapes = []

    def spy(a, err):
        shapes.append(a.shape)
        return refine(a, err)

    monkeypatch.setattr(lattice, "_refine", spy)
    for box in boxes:
        cubes = (box.i_cube, box.j_cube)
        spans = [2 << (lat.depth - c.level) for c in cubes]
        for kind in ("no_bump", "product_bump"):
            shapes.clear()
            got = characteristic_at(kind, kernel, box, sigma, omega, exps)
            assert len(shapes) == lat.dim, (box, shapes)
            for k, shape in enumerate(shapes):
                # the refined axis leads; the rest are the batch and the
                # other axes, walked (one position) or still cropped
                assert shape[0] <= spans[k], (box, k, shape)
                assert math.prod(shape) <= 2 * math.prod(spans), (box, k, shape)
            factors = [(c.grid, c.level, [[i] for i in c.index]) for c in cubes]
            pairs = zip((sigma, omega), bump._thetas(kind, exps))
            masses = [_refined_masses(w, t, factors) for w, t in pairs]
            levels = [(c.level, 1) for c in cubes]
            assert got == bump._products(kind, kernel, exps, levels, masses).flat[0], (box, kind)


@pytest.mark.parametrize("dim, m, depth", [(1, None, 7), (2, None, 4), (2, 1, 5), (3, None, 2), (3, 1, 3), (3, 2, 2)])
@pytest.mark.parametrize("weight", ["cascade", "zero_block", "huge"])
def test_onethird_masses_match_exact_oracle(dim, m, depth, weight):
    # every mass of every block, split or not, is the exact mass correctly
    # rounded: the division by 3^d is corrected by its exact remainder (a
    # plain division is 1 ulp off on about a quarter of the boxes), and 0 on
    # the massless boxes; near-ties within about 2^-90 of a rounding
    # boundary could round either way, which no case here meets.  A
    # density near the float64 maximum, whose sums would overflow at 3^d
    # times the masses, is summed at 2^-7 of its size
    lat = make_lattice(dim, depth)
    if weight == "cascade":
        w = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": dim})
    else:
        dens = rand_w(lat, depth, rough=1.0).density.copy()
        dens[(slice(1, 3),) * dim] = 0.0
        w = Weight(lat, dens if weight == "zero_block" else dens / dens.max() * 1.7e308)
    theta = 1.0 if weight == "huge" else 1.5
    h = lattice._cellwise(lat, w.density, theta)
    owner = [0] * dim if m is None else [0] * m + [1] * (dim - m)
    pyramid = lattice._ThirdPyramid(lat, m)
    blocks = 0
    for levels, groups, masses in pyramid.masses(h):
        lo, hi = [], []
        for k, g in enumerate(groups):
            side = 1 << (depth - levels[owner[k]])
            t = np.arange(masses.shape[k]) * (1 if g is None else 3) + (0 if g is None else g) - 2
            lo.append(t * side)
            hi.append((t + 3) * side)
        exact = _exact_thirds(w, theta, lo, hi)
        assert np.array_equal(masses, exact), (levels, groups)
        blocks += 1
    assert blocks >= (depth + 1) ** (1 if m is None else 2)


@pytest.mark.parametrize(
    "dim, m, depth",
    [(1, None, 10), (2, None, 6), (2, 1, 6), (3, None, 4), (3, 1, 4), (3, 2, 4),
     (4, None, 3), (4, 1, 3), (4, 2, 3), (4, 3, 3)],
)
def test_onethird_offset_zero_masses_are_the_dyadic_pyramids(dim, m, depth):
    # the refined walk's standard grid tuple is the one the scan reads,
    # and its masses, correctly rounded, have the bits of the dyadic
    # pyramid's compensated sums: rough, zero-celled, near the float64
    # maximum (summed at 2^-7) and tiny weights on one batch axis
    lat = make_lattice(dim, depth)
    rough = rand_w(lat, depth, rough=3.0).density
    zeros = gen_weight(lat, {"kind": "cascade", "beta": 0.95, "seed": dim}).density.copy()
    zeros[substream(dim, 9700).uniform(size=lat.shape) < 0.3] = 0.0
    h = np.stack([lattice._cellwise(lat, u) for u in (rough, zeros, rough / rough.max() * 1.7e308, zeros * 1e-300)])
    assert lattice._third_scale(h, lat).ravel().tolist() == [1.0, 1.0, 2.0**-7, 1.0]
    pyramid = dict(lattice._level_masses(h, lat, m))
    owner = [0] * dim if m is None else [0] * m + [1] * (dim - m)
    seen = set()
    for levels, groups, masses in lattice._ThirdPyramid(lat, m).masses(h):
        # offset 0 sits at positions 3i + 2 of an axis, or all of group 2
        if all(g in (None, 2) for g in groups):
            offset0 = masses[(slice(None),) + tuple(slice(2, None, 3) if g is None else slice(None) for g in groups)]
            assert offset0.tobytes() == pyramid[levels].tobytes(), (levels, groups)
            seen.add(levels)
    assert seen == set(pyramid) and all(len(lv) == len(set(owner)) for lv in seen)


def test_onethird_scan_reads_no_dyadic_pyramid(monkeypatch):
    # every grid tuple of the one-third family, the standard one
    # included, comes from the refined walk
    lat = make_lattice(2, 4)
    sigma = gen_weight(lat, {"kind": "cascade", "beta": 0.85, "seed": 3})
    omega = rand_w(lat, 4)
    exps = _exps(0.5, 0.5, theta=1.5)
    one = Exponents(p=2.0, q=4.0, alpha=1.0, beta=0.5, m=2, n=1, theta=1.5)
    kinds = {"no_bump": exps, "product_bump": exps, "half_bump_omega": exps, "one_param": one}
    want = {kind: characteristic(kind, None, sigma, omega, e, family="onethird") for kind, e in kinds.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("the one-third scan read a dyadic pyramid")

    monkeypatch.setattr(bump, "_dyadic_levels", refuse)
    monkeypatch.setattr(bump, "_level_masses", refuse)
    for kind, e in kinds.items():
        got = characteristic(kind, None, sigma, omega, e, family="onethird")
        assert (got.value, got.witness) == (want[kind].value, want[kind].witness)
    with pytest.raises(AssertionError):
        characteristic("no_bump", None, sigma, omega, exps, family="dyadic")


@pytest.mark.parametrize("m, n", [(1, 0), (2, 0), (1, 1), (1, 2), (2, 1)])
def test_standard_tuple_onethird_witness_reads_the_refined_walk(m, n, monkeypatch):
    # a cube of the u = 0 one-third grid re-evaluates through the refined
    # pyramid's steps, as the scan reads it, not the own-cells tree; the
    # same box on the standard grid, a dyadic-family witness, still reads
    # the own-cells tree
    depth = {1: 6, 2: 4, 3: 2}[m + n]
    lat = make_lattice(m + n, depth)
    sigma = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": m + n})
    omega = rand_w(lat, 3 * m + n, rough=0.9)
    exps = Exponents(p=2.0, q=4.0, alpha=0.5 * m, beta=0.5 * max(n, 1), m=m, n=max(n, 1), theta=1.5)
    dims = (m,) if n == 0 else (m, n)
    kind = "one_param" if n == 0 else "half_bump_omega"
    kernel = KernelHandle.from_exponents(exps)
    boxes = []  # (value, u = 0 box, standard box) of each level tuple's first maximum
    for offsets, levels, vals in bump._third_levels(kind, kernel, sigma, omega, exps, dims):
        if not any(offsets):
            k = int(np.argmax(vals))
            boxes.append((vals.flat[k], *(bump._witness(f, dims, depth, offsets, levels, k) for f in ("onethird", "dyadic"))))
    assert len(boxes) == (depth + 1) ** len(dims)
    own = bump._own_mass

    def refuse(*args, **kwargs):
        raise AssertionError("the box read the own-cells tree")

    monkeypatch.setattr(bump, "_own_mass", refuse)
    for value, third, std in boxes:
        assert characteristic_at(kind, None, third, sigma, omega, exps) == value, third
        with pytest.raises(AssertionError):
            characteristic_at(kind, None, std, sigma, omega, exps)
    monkeypatch.setattr(bump, "_own_mass", own)
    for value, _, std in boxes:
        assert characteristic_at(kind, None, std, sigma, omega, exps) == value, std


@pytest.mark.parametrize("dim, m, depth", [(1, None, 7), (2, None, 4), (2, 1, 5), (3, None, 2), (3, 1, 3), (3, 2, 2)])
def test_batched_onethird_walk_matches_single_walks(dim, m, depth):
    # one walk of a stack of weights gives each batch row the levels,
    # groups and bits of a walk of that row alone: a row near the float64
    # maximum, summed at 2^-7 of its size, beside a row summed at scale 1
    # and a row with a block of zero cells
    lat = make_lattice(dim, depth)
    dens = rand_w(lat, depth, rough=1.0).density
    zero = dens.copy()
    zero[(slice(1, 3),) * dim] = 0.0
    cascade = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": dim}).density
    h = np.stack([
        lattice._cellwise(lat, dens / dens.max() * 1.7e308),
        lattice._cellwise(lat, cascade, 1.5),
        lattice._cellwise(lat, zero, 1.5),
    ])
    assert lattice._third_scale(h, lat).ravel().tolist() == [2.0**-7, 1.0, 1.0]
    batched = list(lattice._ThirdPyramid(lat, m).masses(h))
    for row in range(3):
        single = list(lattice._ThirdPyramid(lat, m).masses(h[row]))
        assert [(lv, g) for lv, g, _ in batched] == [(lv, g) for lv, g, _ in single]
        for (levels, groups, got), (_, _, want) in zip(batched, single):
            assert got[row].shape == want.shape and got[row].tobytes() == want.tobytes(), (row, levels, groups)


# the traced peak of one dyadic scan at 2D depth 8, in lattice-size
# float64 arrays (512 KiB each): the stacked pyramids hand on each level
# and drop it, so a scan peaks at about 8.0 such arrays, while both
# weights' finest level tuple is read (7.5 when each first-factor level
# had a pyramid of its own); keeping a reference to the weight's cells and
# the next first-factor level once they are stacked puts it at 9.0
SCAN_PEAK_ARRAYS = 8.25


def test_dyadic_scan_streams_its_pyramids():
    import tracemalloc

    lat = make_lattice(2, 8)
    sigma = gen_weight(lat, {"kind": "cascade", "beta": 0.7, "seed": 5})
    omega = gen_weight(lat, {"kind": "random_lognormal", "seed": 6, "roughness": 0.5})
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, m=1, n=1, theta=1.5)
    want = characteristic("product_bump", None, sigma, omega, exps, family="dyadic")
    tracemalloc.start()
    try:
        got = characteristic("product_bump", None, sigma, omega, exps, family="dyadic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got.value, got.witness) == (want.value, want.witness)
    assert peak <= SCAN_PEAK_ARRAYS * 8 * lat.cell_count, peak / (8 * lat.cell_count)


def test_onethird_batch_is_written_in_place(monkeypatch):
    # sigma's and omega's cellwise values go straight into one batch
    # array: 2 lattice arrays before the walk starts, where a list of the
    # two and its np.stack held 4 at once (the powered case adds the
    # isfinite pass's bool array, an eighth of one)
    import tracemalloc

    lat = make_lattice(2, 7)
    sigma = gen_weight(lat, {"kind": "cascade", "beta": 0.7, "seed": 5})
    omega = gen_weight(lat, {"kind": "random_lognormal", "seed": 6, "roughness": 0.5})
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=1.5)
    seen = {}

    class Probe:
        def __init__(self, lat, m):
            pass

        def masses(self, weights):
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            seen["weights"] = weights.copy()
            return iter(())

    monkeypatch.setattr(bump, "_ThirdPyramid", Probe)
    array = 8 * lat.cell_count
    for kind in ("no_bump", "product_bump"):
        tracemalloc.start()
        try:
            assert list(bump._third_levels(kind, None, sigma, omega, exps, (1, 1))) == []
        finally:
            tracemalloc.stop()
        assert 2.0 <= seen["peak"] / array <= 2.25, seen["peak"] / array
        thetas = bump._thetas(kind, exps)
        for got, w, t in zip(seen["weights"], (sigma, omega), thetas):
            assert got.tobytes() == (np.power(w.density, t) * lat.cell_volume).tobytes()
