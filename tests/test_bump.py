"""Bump functional and characteristic tests.

Closed-form oracles (sqrt(2) for the two-step density, exponent arithmetic
for the Lebesgue characteristics) were fixed before implementation.
"""
import math
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
from dyadlab.bump import _bumps, _level_profiles
from dyadlab.grids import onethird_grids, standard_grid
from dyadlab.lattice import box_mass, box_masses


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
    # the weights of test_zero_block_has_exactly_zero_mass: box_mass and
    # bump_cube read a residual of +-5.42e-20 on the zero block
    rng = np.random.default_rng(seed)
    dens = np.exp(0.6 * rng.standard_normal((32, 32)))
    i, j = (int(v) for v in rng.integers(1, 30, size=2))
    assert (i, j) == block
    dens[i : i + 2, j : j + 2] = 0.0
    w = Weight(make_lattice(2, 5), dens)
    assert box_mass(w, (i / 32, j / 32), ((i + 2) / 32, (j + 2) / 32)) == 0.0
    for theta in (1.0, 1.5):
        assert bump_cube(Rect((i, j), (i + 2, j + 2)), w, theta) == 0.0
    # a box on the one-third grid inside the block, read through the
    # interpolating path of the one-third scans
    lo, hi = (i + 1 / 3, j + 2 / 3), (i + 5 / 3, j + 4 / 3)
    for theta in (1.0, 1.5):
        assert box_mass(w, [a / 32 for a in lo], [b / 32 for b in hi], theta) == 0.0
        edges = [np.array([a]) for a in lo], [np.array([b]) for b in hi]
        assert _bumps(w, theta, *edges, 2.0**-10).tolist() == [0.0]
    # a box reaching a third of a cell into positive cells keeps the engine's value
    lo, hi = (i - 1 / 3, j), (i + 1, j + 1)
    got = box_mass(w, [a / 32 for a in lo], [b / 32 for b in hi])
    assert got > 0.0
    assert got == float(box_masses(w.prefix(1.0), np.array(lo), np.array(hi)))


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


@pytest.mark.parametrize("dim,m,depth", [(2, 1, 5), (3, 1, 3), (3, 2, 3)])
def test_level_profiles_match_slice_profile(dim, m, depth):
    # one block sum per level gives the slice profile of every dyadic J of
    # the level, bit for bit; the zero block makes some profiles vanish
    lat = make_lattice(dim, depth)
    n = dim - m
    dens = rand_w(lat, 40 + dim + m, rough=0.9).density.copy()
    dens[(slice(0, 2),) * dim] = 0.0
    for w in (rand_w(lat, 30 + dim + m, rough=0.9), Weight(lat, dens)):
        for theta in (1.0, 1.5, 2.0):
            for level in range(depth + 1):
                side = lat.cells_per_axis >> level
                prof = _level_profiles(w, theta, n, level)
                assert prof.shape == (1 << level,) * n + lat.shape[:m]
                for j in np.ndindex(*prof.shape[:n]):
                    j_rect = Rect(tuple(i * side for i in j), tuple((i + 1) * side for i in j))
                    want = slice_profile(j_rect, w, theta).density
                    assert prof[j].tobytes() == want.tobytes(), (theta, level, j)


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
    table = KernelHandle.from_table({(0, 0): 1.0}, 1, 1)
    with pytest.raises(DomainError):
        characteristic("product_bump", table, w, w, _exps(0.5, 0.5))
    wit = characteristic("product_bump", None, w, w, _exps(0.5, 0.5)).witness
    with pytest.raises(DomainError):
        characteristic_at("product_bump", table, wit, w, w, _exps(0.5, 0.5))


def test_exponents_validation():
    with pytest.raises(DomainError):
        Exponents(p=4.0, q=2.0, alpha=0.5, beta=0.5)
    with pytest.raises(DomainError):
        Exponents(p=2.0, q=4.0, alpha=1.5, beta=0.5)
    with pytest.raises(DomainError):
        Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=0.8)
    with pytest.raises(DomainError):
        Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, r=3.0)
    with pytest.raises(DomainError):
        Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, r=2.0, s=3.0)
    e = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=1.0)
    assert e.inv_theta_prime == 0.0
    assert e.p_prime == 2.0 and e.q_prime == pytest.approx(4.0 / 3.0)
    k = PowerKernel.from_exponents(e)
    assert (k.i_exp, k.j_exp) == (-0.5, -0.5)

# ---------------------------------------------------------------------------
# the grouped scan against the former per-grid loop
#
# The former characteristic, kept as the reference: one _products call per
# grid tuple and level tuple, each factor's cube edges gathered as float
# arrays, the first maximum kept with a strict >.  A one-third grid tuple
# reads the prefix engine, as the former loop did.  The standard grid pair
# (offset 0 on every axis) reads its masses through a given function: the
# dyadic pyramid's level tuple, which the scan must reproduce bit for bit,
# or a math.fsum oracle, which it must match to within VALUE_ULPS.

# the values' relative distance to the fsum oracle, in units of 2^-53:
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


def _former_factor(grid, level, index, depth):
    ncells = 1 << depth
    side_cells = float(2.0 ** (depth - level))
    lo, hi = [], []
    for k, idx in enumerate(index):
        a = np.asarray(idx, dtype=np.int64) * side_cells + float(grid.offset(k, level)) * ncells
        lo.append(np.clip(a, 0.0, ncells))
        hi.append(np.clip(a + side_cells, 0.0, ncells))
    return grid, level, list(index), lo, hi


def _standard(factors) -> bool:
    return all(not any(grid.offset(k, level) for k in range(grid.dim)) for grid, level, *_ in factors)


def _pyramid_masses(w, theta, factors):
    """The dyadic pyramid's masses of the factors' level tuple, at the
    factors' cube indices."""
    lat = w.lattice
    m = None if len(factors) == 1 else factors[0][0].dim
    levels = tuple(level for _, level, *_ in factors)
    masses = dict(lattice._level_masses(lattice._cellwise(lat, w.density, theta), lat, m))[levels]
    return masses[np.ix_(*[np.asarray(i) for _, _, index, _, _ in factors for i in index])]


def _fsum_masses(w, theta, factors):
    """math.fsum of the cells of every factor box (whole cells only)."""
    cells = lattice._cellwise(w.lattice, w.density, theta)
    lo = [a.astype(np.int64) for *_, flo, _ in factors for a in flo]
    hi = [b.astype(np.int64) for *_, fhi in factors for b in fhi]
    out = np.empty(tuple(a.size for a in lo))
    for idx in np.ndindex(*out.shape):
        box = cells[tuple(slice(a[i], b[i]) for a, b, i in zip(lo, hi, idx))]
        out[idx] = math.fsum(box.ravel().tolist())
    return out


def _former_products(kind, kernel, sigma, omega, exps, factors, standard):
    levels = [(level, grid.dim) for grid, level, *_ in factors]
    weights = list(zip((sigma, omega), bump._thetas(kind, exps)))
    if _standard(factors):
        masses = [standard(w, t, factors) for w, t in weights]
    else:
        edges = [np.ix_(*[a for f in factors for a in f[k]]) for k in (3, 4)]
        masses = [bump._prefix_masses(w, t, *edges) for w, t in weights]
    return bump._products(kind, kernel, exps, levels, masses)


def _family_grids(family, dim, depth):
    return [standard_grid(dim, 0, depth)] if family == "dyadic" else onethird_grids(dim, 0, depth)


def _former_characteristic(kind, sigma, omega, exps, family, standard):
    kernel = KernelHandle.from_exponents(exps)
    dims = (exps.m,) if kind == "one_param" else (exps.m, exps.n)
    depth = sigma.lattice.depth
    per_grid = [
        [
            [
                _former_factor(grid, lv, _former_level_cubes(grid, lv), depth)
                for lv in range(depth + 1)
            ]
            for grid in _family_grids(family, dim, depth)
        ]
        for dim in dims
    ]
    best = -1.0
    best_at = None
    for grids in iproduct(*per_grid):
        for factors in iproduct(*grids):
            vals = _former_products(kind, kernel, sigma, omega, exps, factors, standard)
            k = int(np.argmax(vals))
            if vals.flat[k] > best:
                best = float(vals.flat[k])
                best_at = factors, np.unravel_index(k, vals.shape)
    factors, pos = best_at
    cubes = []
    for grid, level, index, _, _ in factors:
        here, pos = pos[: grid.dim], pos[grid.dim :]
        cubes.append(Cube(grid, level, tuple(int(ks[p]) for ks, p in zip(index, here))))
    return best, cubes[0] if len(cubes) == 1 else DyadicRect(*cubes)


def _fsum_at(kind, witness, sigma, omega, exps):
    """The fsum oracle's value of one standard witness."""
    cubes = (witness,) if kind == "one_param" else (witness.i_cube, witness.j_cube)
    depth = sigma.lattice.depth
    factors = [_former_factor(c.grid, c.level, [[i] for i in c.index], depth) for c in cubes]
    kernel = KernelHandle.from_exponents(exps)
    return float(_former_products(kind, kernel, sigma, omega, exps, factors, _fsum_masses).flat[0])


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
    if family == "dyadic":
        # the exact oracle: the value to within VALUE_ULPS, and the witness
        # a maximizer of the oracle's values to within the same
        exps = res.exps
        value, _ = _former_characteristic(kind, sigma, omega, exps, family, _fsum_masses)
        tol = VALUE_ULPS * 2.0**-53 * value
        assert abs(res.value - value) <= tol
        assert _fsum_at(kind, res.witness, sigma, omega, exps) >= value - tol


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
    want = _former_characteristic(kind, sigma, omega, exps, family, _pyramid_masses)
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
