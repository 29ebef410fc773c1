"""Stopping, Carleson, and embedding tests.

Closed forms frozen before implementation: the Lebesgue geometric series
2 - 2^-L for the automatic sum, its fourth root for the cube embedding,
its square root for the rectangle embedding, and the stopping example
whose only maximal cube is [0, 1/4).
"""
import math
from dataclasses import astuple
from itertools import product

import numpy as np
import pytest

from dyadlab import (
    ContractViolationError,
    DomainError,
    GoodnessParams,
    GridFunction,
    Rect,
    ShapeError,
    Weight,
    automatic_carleson,
    embed_check_cubes,
    embed_check_rects,
    full_rect,
    gen_weight,
    good_carleson,
    integrate,
    is_good,
    make_lattice,
    refine_function,
    refine_weight,
    standard_grid,
    stopping_cubes,
    substream,
)
from dyadlab import EmbedRectReport, lattice, lp_norm, slice_profile
from dyadlab.bump import _bump_map
from dyadlab import embed
from dyadlab.embed import _proof_chain
from dyadlab.grids import Cube, _good_rel_mask
from dyadlab.lattice import box_masses


def _tiles(lo, hi, side):
    """The cubes of one side tiling the cell box [lo, hi) as an (N, d, 2)
    box list of lower and upper edges, C order."""
    starts = np.meshgrid(*(np.arange(a, b, side) for a, b in zip(lo, hi)), indexing="ij")
    starts = np.stack(starts, axis=-1).reshape(-1, len(lo))
    return np.stack([starts, starts + side], axis=2)


def _sub_boxes(lat, P, level):
    """Level subcubes of P as a box list, with indices relative to P."""
    side = lat.cells_per_axis >> level
    boxes = _tiles(P.lo, P.hi, side)
    return boxes, (boxes[:, :, 0] - np.asarray(P.lo)) // side


def _factor_boxes(cells, dims, level):
    """All level cubes of a dims-axis factor as a box list."""
    return _tiles((0,) * dims, (cells,) * dims, cells >> level)


def _cross_boxes(i_boxes, j_boxes):
    """Every product of a row of i_boxes with a row of j_boxes, i-major."""
    ni, nj = i_boxes.shape[0], j_boxes.shape[0]
    return np.concatenate(
        [np.repeat(i_boxes, nj, axis=0), np.tile(j_boxes, (ni, 1, 1))], axis=1
    )


def lebesgue(lat):
    return gen_weight(lat, {"kind": "constant", "value": 1.0})


def rand_w(lat, seed, rough=0.6):
    return gen_weight(lat, {"kind": "random_lognormal", "seed": seed, "roughness": rough})


def rand_f(lat, seed):
    rng = substream(seed, 9100)
    return GridFunction(lat, np.exp(0.7 * rng.standard_normal(lat.shape)))


# ---------------------------------------------------------------------------
# stopping cubes


def test_stopping_top_cube_only():
    lat = make_lattice(1, 4)
    f = GridFunction(lat, np.ones(lat.shape))
    for theta in (1.0, 2.0):
        fam = stopping_cubes(f, lebesgue(lat), theta, k=-1)
        assert len(fam) == 1
        assert fam.cubes[0] == full_rect(lat)
        assert fam.averages[0] == pytest.approx(1.0, rel=1e-12)
        assert fam.refined_ok == (True,)


def test_stopping_strict_threshold_empty():
    lat = make_lattice(1, 4)
    f = GridFunction(lat, np.ones(lat.shape))
    fam = stopping_cubes(f, lebesgue(lat), 2.0, k=0)
    assert len(fam) == 0


def test_stopping_quarter_interval_example():
    lat = make_lattice(1, 3)
    values = np.zeros(8)
    values[:2] = 4.0
    f = GridFunction(lat, values)
    fam = stopping_cubes(f, lebesgue(lat), 1.0, k=1)
    assert fam.cubes == (Rect((0,), (2,)),)
    assert fam.averages[0] == pytest.approx(4.0, rel=1e-12)
    assert fam.refined_ok == (True,)


def _averages_of(f, w, theta, rects):
    """Each rect's f-mass, the math.fsum of its cells f * density *
    cell_volume, over its bump."""
    from dyadlab import bump_cube

    cells = f.values * w.density * w.lattice.cell_volume
    out = []
    for rect in rects:
        b = bump_cube(rect, w, theta)
        mass = math.fsum(cells[tuple(map(slice, rect.lo, rect.hi))].ravel().tolist())
        out.append(mass / b if b > 0 else 0.0)
    return out


@pytest.mark.parametrize("dim,depth", [(1, 6), (2, 4)])
def test_stopping_maximality_and_disjointness(dim, depth):
    lat = make_lattice(dim, depth)
    for seed in range(6):
        w = rand_w(lat, seed + 40)
        f = rand_f(lat, seed + 40)
        fam = stopping_cubes(f, w, 1.5, k=0)
        assert all(a > 1.0 for a in fam.averages)
        assert all(fam.refined_ok)
        # pairwise disjoint
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                a, b = fam.cubes[i], fam.cubes[j]
                overlap = all(
                    max(a.lo[k], b.lo[k]) < min(a.hi[k], b.hi[k]) for k in range(dim)
                )
                assert not overlap
        # every strict dyadic ancestor sits at or below the threshold
        ancestors = []
        for rect in fam.cubes:
            side = rect.hi[0] - rect.lo[0]
            while side < lat.cells_per_axis:
                side *= 2
                lo = tuple((a // side) * side for a in rect.lo)
                ancestors.append(Rect(lo, tuple(a + side for a in lo)))
        for anc, avg in zip(ancestors, _averages_of(f, w, 1.5, ancestors)):
            assert avg <= 1.0 + 1e-12, f"ancestor {anc} beats the threshold"


def test_stopping_covers_mass_above_threshold():
    # every cell where f exceeds the threshold lies in some selected cube,
    # because the cell itself already has average above 2^k
    lat = make_lattice(1, 6)
    w = rand_w(lat, 7)
    f = rand_f(lat, 7)
    fam = stopping_cubes(f, w, 1.0, k=0)
    covered = np.zeros(lat.shape, dtype=bool)
    for rect in fam.cubes:
        covered[rect.lo[0] : rect.hi[0]] = True
    hot = (f.values > 1.0) & (w.density > 0)
    assert np.all(covered[hot])


def test_stopping_rejects_bad_inputs():
    lat = make_lattice(1, 3)
    f = GridFunction(lat, np.ones(lat.shape))
    with pytest.raises(DomainError):
        stopping_cubes(f, lebesgue(lat), 0.5, k=0)
    with pytest.raises(ShapeError):
        stopping_cubes(f, lebesgue(make_lattice(1, 4)), 1.0, k=0)


# ---------------------------------------------------------------------------
# automatic Carleson


def test_automatic_lebesgue_1d_exact():
    depth = 8
    lat = make_lattice(1, depth)
    rep = automatic_carleson(full_rect(lat), lebesgue(lat), theta=2.0, rho=2.0)
    assert rep.lhs_sum == pytest.approx(2.0 - 2.0**-depth, rel=1e-12)
    assert rep.explicit_constant == pytest.approx(1.0 / (1.0 - 2.0**-0.5), abs=1e-12)
    assert rep.passes
    assert rep.witness == full_rect(lat)


def test_automatic_lebesgue_2d_exact():
    depth = 5
    lat = make_lattice(2, depth)
    rep = automatic_carleson(full_rect(lat), lebesgue(lat), theta=2.0, rho=2.0)
    assert rep.lhs_sum == pytest.approx((4.0 - 4.0**-depth) / 3.0, rel=1e-12)
    assert rep.explicit_constant == pytest.approx(2.0, abs=1e-12)
    assert rep.passes


def test_automatic_zero_weight_passes():
    lat = make_lattice(1, 5)
    rep = automatic_carleson(full_rect(lat), gen_weight(lat, {"kind": "constant", "value": 0.0}), 2.0, 2.0)
    assert rep.lhs_sum == 0.0
    assert rep.ratio == 0.0
    assert rep.passes


def test_automatic_includes_top_and_subcube_roots():
    lat = make_lattice(1, 5)
    w = rand_w(lat, 3)
    P = Rect((8,), (16,))
    rep = automatic_carleson(P, w, 1.5, 2.0)
    from dyadlab import bump_cube

    assert rep.lhs_sum >= bump_cube(P, w, 1.5) ** 2.0
    assert rep.witness == P


@pytest.mark.parametrize("theta,rho", [(2.0, 2.0), (1.5, 3.0), (3.0, 1.5)])
def test_automatic_random_weights_pass(theta, rho):
    lat = make_lattice(1, 7)
    for seed in range(25):
        rep = automatic_carleson(full_rect(lat), rand_w(lat, seed, rough=0.8), theta, rho)
        assert rep.passes, f"seed {seed}: ratio {rep.ratio}"


def test_automatic_validation():
    lat = make_lattice(1, 4)
    w = lebesgue(lat)
    with pytest.raises(DomainError):
        automatic_carleson(full_rect(lat), w, theta=1.0, rho=2.0)
    with pytest.raises(DomainError):
        automatic_carleson(full_rect(lat), w, theta=2.0, rho=1.0)
    with pytest.raises(DomainError):
        automatic_carleson(Rect((0,), (3,)), w, 2.0, 2.0)
    with pytest.raises(DomainError):
        automatic_carleson(Rect((4,), (12,)), w, 2.0, 2.0)
    # 1 - 2^-(d (rho - 1)(1 - 1/theta)) rounds to 0
    with pytest.raises(DomainError, match="rho=1.0000000000000002"):
        automatic_carleson(full_rect(lat), w, 1.5, 1.0000000000000002)


# ---------------------------------------------------------------------------
# good-cube Carleson


def test_good_mask_matches_strict_goodness_1d():
    depth = 8
    grid = standard_grid(1, 0, depth)
    lat = make_lattice(1, depth)
    params = GoodnessParams(eps=0.25, r=2)
    top = full_rect(lat)
    for level in range(params.r, depth + 1):
        boxes, rel = _sub_boxes(lat, top, level)
        mask = _good_rel_mask(rel, level, params)
        for i in range(boxes.shape[0]):
            cube = Cube(grid, level, (int(rel[i, 0]),))
            assert mask[i] == is_good(cube, params), (level, i)


def test_good_mask_matches_strict_goodness_2d():
    depth = 5
    grid = standard_grid(2, 0, depth)
    lat = make_lattice(2, depth)
    params = GoodnessParams(eps=0.25, r=2)
    top = full_rect(lat)
    for level in range(params.r, depth + 1):
        boxes, rel = _sub_boxes(lat, top, level)
        mask = _good_rel_mask(rel, level, params)
        for i in range(boxes.shape[0]):
            cube = Cube(grid, level, tuple(int(v) for v in rel[i]))
            assert mask[i] == is_good(cube, params), (level, i)


def test_good_carleson_lebesgue_oracle():
    depth = 8
    lat = make_lattice(1, depth)
    rep = good_carleson(full_rect(lat), lebesgue(lat), 2.0, GoodnessParams(eps=0.25, r=2))
    # concentric shrinks of intervals scale mass exactly, so eta = 1
    assert rep.explicit_constant == pytest.approx(12.0 + 1.0 / (1.0 - 2.0**-0.75), rel=1e-12)
    # at most 2^k good cubes per gap, each of mass 2^-k
    assert rep.lhs_sum <= 2.0 + 1e-12
    assert rep.passes


def test_good_carleson_eta_override_matches_scan():
    lat = make_lattice(1, 6)
    w = lebesgue(lat)
    a = good_carleson(full_rect(lat), w, 2.0, GoodnessParams(eps=0.25, r=2))
    b = good_carleson(full_rect(lat), w, 2.0, GoodnessParams(eps=0.25, r=2), eta=1.0)
    assert a.explicit_constant == b.explicit_constant
    assert a.lhs_sum == b.lhs_sum


def test_good_carleson_halfspace_passes():
    lat = make_lattice(1, 7)
    w = gen_weight(lat, {"kind": "halfspace_cutoff"})
    rep = good_carleson(full_rect(lat), w, 2.0, GoodnessParams(eps=0.25, r=2))
    assert rep.passes
    assert rep.lhs_sum > 0.0


def test_good_carleson_shallow_lattice_trivial_term():
    # depth below the goodness range: every cube counts and the trivial
    # term alone already dominates
    lat = make_lattice(1, 2)
    w = rand_w(lat, 11)
    rep = good_carleson(full_rect(lat), w, 2.0, GoodnessParams(eps=0.25, r=8))
    assert rep.passes
    assert rep.lhs_sum > 0.0


def test_good_carleson_random_weights_pass():
    lat = make_lattice(2, 4)
    for seed in range(8):
        w = gen_weight(lat, {"kind": "cascade", "beta": 0.7, "seed": seed})
        rep = good_carleson(full_rect(lat), w, 2.0, GoodnessParams(eps=0.25, r=2))
        assert rep.passes, f"seed {seed}: ratio {rep.ratio}"


def test_good_carleson_precondition_error_carries_witness():
    # density supported strictly inside the concentric half of [0, 1):
    # the scale-1 shrink keeps the full mass, so no decay exponent exists
    lat = make_lattice(1, 4)
    dens = np.zeros(16)
    dens[6:10] = 1.0
    w = Weight(lat, dens)
    with pytest.raises(DomainError) as info:
        good_carleson(full_rect(lat), w, 2.0, GoodnessParams(eps=0.25, r=2))
    witness = info.value.witness
    assert witness is not None
    assert witness.reevaluate(w) == pytest.approx(1.0, abs=0.0)


def test_good_carleson_validation():
    lat = make_lattice(1, 4)
    with pytest.raises(DomainError):
        good_carleson(full_rect(lat), lebesgue(lat), 1.0, GoodnessParams(eps=0.25, r=2))
    # 1 - 2^-(eta (1 - eps)(rho - 1)) rounds to 0
    with pytest.raises(DomainError, match="eta=1e-300"):
        good_carleson(full_rect(lat), lebesgue(lat), 2.0, GoodnessParams(eps=0.25, r=2), eta=1e-300)


# ---------------------------------------------------------------------------
# cube embedding


def test_embed_cubes_lebesgue_oracle():
    depth = 8
    lat = make_lattice(1, depth)
    f = GridFunction(lat, np.ones(lat.shape))
    rep = embed_check_cubes(f, lebesgue(lat), theta=2.0, r=4.0, s=2.0)
    assert rep.lhs == pytest.approx((2.0 - 2.0**-depth) ** 0.25, rel=1e-12)
    assert rep.rhs_norm == pytest.approx(1.0, rel=1e-12)
    assert rep.ratio == pytest.approx(rep.lhs, rel=1e-12)


def test_embed_cubes_zero_function():
    lat = make_lattice(1, 5)
    rep = embed_check_cubes(GridFunction(lat, np.zeros(lat.shape)), rand_w(lat, 1), 2.0, 4.0, 2.0)
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0


def test_embed_cubes_scaling_invariance():
    lat = make_lattice(1, 6)
    w = rand_w(lat, 5)
    f = rand_f(lat, 5)
    f2 = GridFunction(lat, 2.0 * f.values)
    a = embed_check_cubes(f, w, 1.5, 4.0, 2.0)
    b = embed_check_cubes(f2, w, 1.5, 4.0, 2.0)
    assert b.lhs == pytest.approx(2.0 * a.lhs, rel=1e-12)
    assert b.ratio == pytest.approx(a.ratio, rel=1e-12)


def test_embed_cubes_validation():
    lat = make_lattice(1, 4)
    f = GridFunction(lat, np.ones(lat.shape))
    w = lebesgue(lat)
    with pytest.raises(DomainError):
        embed_check_cubes(f, w, theta=1.0, r=4.0, s=2.0)
    with pytest.raises(DomainError):
        embed_check_cubes(f, w, theta=2.0, r=2.0, s=2.0)
    with pytest.raises(DomainError):
        embed_check_cubes(f, w, theta=2.0, r=4.0, s=1.0)


def test_embed_cubes_truncation_monotone():
    lat = make_lattice(1, 6)
    w = rand_w(lat, 9)
    f = rand_f(lat, 9)
    coarse = embed_check_cubes(f, w, 2.0, 4.0, 2.0)
    fine = embed_check_cubes(refine_function(f, 2), refine_weight(w, 2), 2.0, 4.0, 2.0)
    assert fine.lhs >= coarse.lhs * (1.0 - 1e-12)
    assert fine.rhs_norm == pytest.approx(coarse.rhs_norm, rel=1e-12)


def test_embed_cubes_depth_stability():
    lat = make_lattice(1, 8)
    worst = 0.0
    for seed in range(20):
        w = rand_w(lat, seed + 60, rough=0.7)
        f = rand_f(lat, seed + 60)
        base = embed_check_cubes(f, w, 2.0, 4.0, 2.0)
        fine = embed_check_cubes(refine_function(f, 2), refine_weight(w, 2), 2.0, 4.0, 2.0)
        worst = max(worst, fine.ratio / base.ratio)
    assert worst <= 1.1, f"worst depth growth {worst}"


# ---------------------------------------------------------------------------
# rectangle embedding


def test_embed_rects_lebesgue_oracle():
    depth = 6
    lat = make_lattice(2, depth)
    f = GridFunction(lat, np.ones(lat.shape))
    rep = embed_check_rects(f, lebesgue(lat), theta=2.0, r=4.0, s=2.0)
    series = 2.0 - 2.0**-depth
    assert rep.lhs == pytest.approx(series**0.5, rel=1e-12)
    assert rep.rhs_norm == pytest.approx(1.0, rel=1e-12)
    assert rep.intermediate == pytest.approx(series, rel=1e-9)
    assert rep.max_slice_ratio == pytest.approx(series**0.25, rel=1e-9)
    assert rep.max_point_ratio == pytest.approx(series**0.25, rel=1e-9)


def test_embed_rects_separable_factorization():
    depth = 5
    lat2 = make_lattice(2, depth)
    lat1 = make_lattice(1, depth)
    for seed in range(10):
        rng = substream(seed, 9200)
        ax = np.exp(0.6 * rng.standard_normal(1 << depth))
        bx = np.exp(0.6 * rng.standard_normal(1 << depth))
        fy = np.exp(0.5 * rng.standard_normal(1 << depth))
        gy = np.exp(0.5 * rng.standard_normal(1 << depth))
        w2 = Weight(lat2, np.outer(ax, bx))
        f2 = GridFunction(lat2, np.outer(fy, gy))
        rep = embed_check_rects(f2, w2, 1.5, 4.0, 2.0)
        left = embed_check_cubes(GridFunction(lat1, fy), Weight(lat1, ax), 1.5, 4.0, 2.0)
        right = embed_check_cubes(GridFunction(lat1, gy), Weight(lat1, bx), 1.5, 4.0, 2.0)
        assert rep.lhs == pytest.approx(left.lhs * right.lhs, rel=1e-9)
        assert rep.rhs_norm == pytest.approx(left.rhs_norm * right.rhs_norm, rel=1e-9)


def test_embed_rects_chain_holds_on_random_data():
    lat = make_lattice(2, 5)
    for seed in range(10):
        w = rand_w(lat, seed + 80, rough=0.8)
        f = rand_f(lat, seed + 80)
        rep = embed_check_rects(f, w, 2.0, 4.0, 2.0)
        assert rep.lhs <= rep.max_slice_ratio * rep.max_point_ratio * rep.rhs_norm * (1 + 1e-6)
        assert math.isfinite(rep.intermediate)
        assert math.isfinite(rep.minkowski_mid)


def test_embed_rects_zero_function():
    lat = make_lattice(2, 4)
    rep = embed_check_rects(GridFunction(lat, np.zeros(lat.shape)), rand_w(lat, 2), 2.0, 4.0, 2.0)
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0


def test_embed_rects_validation():
    lat = make_lattice(2, 3)
    f = GridFunction(lat, np.ones(lat.shape))
    w = lebesgue(lat)
    with pytest.raises(DomainError):
        embed_check_rects(f, w, theta=1.0, r=4.0, s=2.0)
    with pytest.raises(ShapeError):
        embed_check_rects(f, w, theta=2.0, r=4.0, s=2.0, m=2)


def test_embed_rects_truncation_monotone():
    lat = make_lattice(2, 4)
    w = rand_w(lat, 21)
    f = rand_f(lat, 21)
    coarse = embed_check_rects(f, w, 2.0, 4.0, 2.0)
    fine = embed_check_rects(refine_function(f, 1), refine_weight(w, 1), 2.0, 4.0, 2.0)
    assert fine.lhs >= coarse.lhs * (1.0 - 1e-12)


def test_good_rectangle_carleson_with_product_constants():
    # mass Carleson over rectangles whose factors are both good, bounded by
    # the product of the per-axis good-cube constants
    from dyadlab import doubling_report

    depth = 5
    lat = make_lattice(2, depth)
    params = GoodnessParams(eps=0.25, r=2)
    rho = 2.0
    for seed in range(4):
        w = gen_weight(lat, {"kind": "cascade", "beta": 0.75, "seed": seed + 3})
        scan = doubling_report(w, "product_reverse")
        assert scan.passes_reverse
        tab = w.prefix(1.0)
        total = 0.0
        for li in range(depth + 1):
            ib = _factor_boxes(lat.cells_per_axis, 1, li)
            imask = _good_rel_mask(ib[:, :, 0] >> (depth - li), li, params)
            for lj in range(depth + 1):
                jb = _factor_boxes(lat.cells_per_axis, 1, lj)
                jmask = _good_rel_mask(jb[:, :, 0] >> (depth - lj), lj, params)
                boxes = _cross_boxes(ib[imask], jb[jmask])
                if boxes.shape[0]:
                    masses = box_masses(tab, boxes[:, :, 0].T, boxes[:, :, 1].T)
                    total += float(np.power(masses.astype(np.float64), rho).sum())
        consts = []
        for eps_axis in scan.rev_eps:
            decay = eps_axis * (1.0 - params.eps) * (rho - 1.0)
            consts.append((params.r + 1) * 2.0**params.r + 1.0 / (1.0 - 2.0**-decay))
        bound = consts[0] * consts[1] * integrate(w, full_rect(lat)) ** rho
        assert total <= bound * (1 + 1e-9), f"seed {seed}: {total} vs {bound}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry",
    ["stopping_cubes", "embed_check_cubes", "embed_check_rects", "automatic_carleson_theta",
     "automatic_carleson_rho", "good_carleson_rho", "embed_check_cubes_r", "embed_check_rects_r"],
)
def test_non_finite_theta_or_rho_is_refused(entry, bad):
    lat = make_lattice(2, 3)
    f, w = rand_f(lat, 7), rand_w(lat, 8)
    P = full_rect(lat)
    calls = {
        "stopping_cubes": lambda: stopping_cubes(f, w, bad, 0),
        "embed_check_cubes": lambda: embed_check_cubes(f, w, bad, 4.0, 2.0),
        "embed_check_rects": lambda: embed_check_rects(f, w, bad, 4.0, 2.0),
        "automatic_carleson_theta": lambda: automatic_carleson(P, w, bad, 2.0),
        "automatic_carleson_rho": lambda: automatic_carleson(P, w, 2.0, bad),
        "good_carleson_rho": lambda: good_carleson(P, w, bad, GoodnessParams(eps=0.25, r=2)),
        "embed_check_cubes_r": lambda: embed_check_cubes(f, w, 1.5, bad, 2.0),
        "embed_check_rects_r": lambda: embed_check_rects(f, w, 1.5, bad, 2.0),
    }
    with pytest.raises(DomainError):
        calls[entry]()


# ---------------------------------------------------------------------------
# proof chain of the rectangle embedding against the former loops
#
# The former loops read every mass through a given function: the dyadic
# pyramid's level tuple, whose bits the batched evaluator must keep, or a
# math.fsum oracle of the box's cells.  Every sum of terms is a math.fsum,
# as the evaluator's compensated totals round each sum correctly.  Axes
# of cells before the lattice's are a batch.


def _pyramid_level(cells, lat, levels, m):
    return dict(lattice._level_masses(cells, lat, m))[levels]


def _fsum_level(cells, lat, levels, m):
    dims = (lat.dim,) if m is None else (m, lat.dim - m)
    sides = [lat.cells_per_axis >> lv for lv, d in zip(levels, dims) for _ in range(d)]
    lead = cells.ndim - lat.dim
    out = np.empty(cells.shape[:lead] + tuple(lat.cells_per_axis // s for s in sides))
    for idx in np.ndindex(*out.shape):
        box = cells[idx[:lead] + tuple(slice(i * s, (i + 1) * s) for i, s in zip(idx[lead:], sides))]
        out[idx] = math.fsum(box.ravel().tolist())
    return out


def _former_terms(b, mf, r, s):
    """The embedding terms of the boxes of positive bump only."""
    pos = b > 0.0
    return np.power(mf[pos] * np.power(b[pos], 1.0 / s - 1.0), r).tolist()


def _former_level(f, w, theta, r, s, levels, m, read):
    """The embedding terms of one level tuple, masses from read."""
    lat = w.lattice
    b = read(lattice._cellwise(lat, w.density, theta), lat, levels, m)
    vol = 2.0 ** -sum(lv * d for lv, d in zip(levels, (lat.dim,) if m is None else (m, lat.dim - m)))
    b = _bump_map(b, vol, theta)
    return _former_terms(b, read(f.values * w.density * lat.cell_volume, lat, levels, m), r, s)


def _former_cubes(f, w, theta, r, s, read):
    """(lhs, rhs) of the cube embedding, one level at a time."""
    terms = []
    for level in range(w.lattice.depth + 1):
        terms += _former_level(f, w, theta, r, s, (level,), None, read)
    return float(np.power(math.fsum(terms), 1.0 / r)), lp_norm(f, w, s)


def _former_rects(f, w, theta, r, s, m, read):
    """The rectangle check as loops: the direct sum over level pairs, one
    cube embedding per dyadic J against its slice profile, one per point
    x, the slices' masses over J read as the rest are.  Returns the
    per-slice and per-point (lhs, rhs) and the report."""
    lat = w.lattice
    n_ax, depth, cells = lat.dim - m, lat.depth, lat.cells_per_axis
    terms = []
    for levels in product(range(depth + 1), repeat=2):
        terms += _former_level(f, w, theta, r, s, levels, m, read)
    lhs = float(np.power(math.fsum(terms), 1.0 / r))
    rhs = lp_norm(f, w, s)

    m_lat, n_lat = make_lattice(m, depth), make_lattice(n_ax, depth)
    slices, intermediate, max_slice = [], [], 0.0
    for lj in range(depth + 1):
        mu = read(lattice._cellwise(n_lat, w.density, theta), n_lat, (lj,), None)
        mf = read(f.values * w.density * n_lat.cell_volume, n_lat, (lj,), None)
        for j_idx in np.ndindex(*((1 << lj,) * n_ax)):
            dens = _bump_map(mu[(...,) + j_idx], 2.0 ** (-lj * n_ax), theta)
            h = mf[(...,) + j_idx]
            g = np.where(dens > 0.0, h / np.where(dens > 0.0, dens, 1.0), 0.0)
            nu = Weight(m_lat, dens)
            a, b = _former_cubes(GridFunction(m_lat, g), nu, theta, r, s, read)
            slices.append((a, b))
            intermediate.append(float(np.power(b, r)))
            if b > 0.0:
                max_slice = max(max_slice, a / b)
    points, minkowski, max_point = [], [], 0.0
    for x_idx in np.ndindex(*((cells,) * m)):
        sel = tuple(x_idx) + (slice(None),) * n_ax
        fx, wx = GridFunction(n_lat, f.values[sel]), Weight(n_lat, w.density[sel])
        a, b = _former_cubes(fx, wx, theta, r, s, read)
        points.append((a, b))
        minkowski.append(float(np.power(a, s)) * 2.0 ** (-m * depth))
        if b > 0.0:
            max_point = max(max_point, a / b)
    rep = EmbedRectReport(
        lhs, rhs, lhs / rhs, math.fsum(intermediate), math.fsum(minkowski), max_slice, max_point
    )
    return np.array(slices), np.array(points), rep


def _zero_block(lat, seed):
    """A lognormal weight with a block of zero density, a quarter of the
    first axis by half of every other, off the lattice corners."""
    dens = rand_w(lat, seed, rough=0.8).density.copy()
    q = lat.cells_per_axis // 4
    dens[(slice(q, 2 * q),) + (slice(q, 3 * q),) * (lat.dim - 1)] = 0.0
    return Weight(lat, dens)


def _ulps(a, b):
    """Largest distance in float64 ulps between matching entries."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64)), initial=0))


# the fsum oracle's distance, in ulps, to every per-slice, per-point and
# reported number: masses within an ulp, raised to r in each term and
# taken back to the power 1/r, plus a flipped rounding of a power or sum
ORACLE_ULPS = 2


@pytest.mark.parametrize(
    "dim,m,depth,theta", [(2, 1, 6, 1.5), (2, 1, 5, 2.0), (3, 1, 4, 1.5), (3, 2, 4, 2.0)]
)
def test_proof_chain_matches_former_loops(dim, m, depth, theta):
    # Batching every slice of a level, and every point, into one evaluator
    # call keeps every per-slice, per-point and reported bit of loops that
    # read the same pyramid.  On a weight with a zero-density block, boxes
    # of zero bump add 0 inside the sum instead of being left out of it,
    # which a compensated sum takes exactly.  Loops that read a math.fsum
    # oracle of every box stay within ORACLE_ULPS.
    lat = make_lattice(dim, depth)
    f = rand_f(lat, 90 + depth)
    weights = {
        "lognormal": rand_w(lat, 91 + depth, rough=0.8),
        "cascade": gen_weight(lat, {"kind": "cascade", "beta": 0.7, "seed": 92 + depth}),
        "zero_block": _zero_block(lat, 93 + depth),
    }
    r, s = 4.0, 2.0
    for name, w in weights.items():
        parts = _proof_chain(f, w, theta, r, s, m)
        rep = embed_check_rects(f, w, theta, r, s, m=m)
        got = (np.stack(parts[:2], axis=1), np.stack(parts[2:], axis=1), astuple(rep))
        slices, points, former = _former_rects(f, w, theta, r, s, m, _pyramid_level)
        drift = max(_ulps(a, b) for a, b in zip(got, (slices, points, astuple(former))))
        assert drift == 0, f"{name}: {drift} ulps"
        slices, points, oracle = _former_rects(f, w, theta, r, s, m, _fsum_level)
        drift = max(_ulps(a, b) for a, b in zip(got, (slices, points, astuple(oracle))))
        assert drift <= ORACLE_ULPS, f"{name}: {drift} ulps from the oracle"


def _per_level_chain(f, w, theta, r, s, m):
    """_proof_chain with one evaluator call per level of slices, as it ran
    before the levels were batched: each profile from slice_profile, each
    slice's f-mass from the pyramid."""
    lat = w.lattice
    n_ax, depth = lat.dim - m, lat.depth
    m_lat, n_lat = make_lattice(m, depth), make_lattice(n_ax, depth)
    slices = []
    for lj in range(depth + 1):
        side = lat.cells_per_axis >> lj
        mf = _pyramid_level(f.values * w.density * n_lat.cell_volume, n_lat, (lj,), None)
        h = np.moveaxis(mf, range(m, lat.dim), range(n_ax))
        dens = np.empty_like(h)
        for j in np.ndindex(*h.shape[:n_ax]):
            j_rect = Rect(tuple(i * side for i in j), tuple((i + 1) * side for i in j))
            dens[j] = slice_profile(j_rect, w, theta).density
        g = np.where(dens > 0.0, h / np.where(dens > 0.0, dens, 1.0), 0.0)
        slices.append([v.ravel() for v in embed._embeddings(g, dens, m_lat, theta, r, s)[:2]])
    slice_lhs, slice_rhs = (np.concatenate(v) for v in zip(*slices))
    points = embed._embeddings(f.values, w.density, make_lattice(n_ax, depth), theta, r, s)[:2]
    return slice_lhs, slice_rhs, *(v.ravel() for v in points)


@pytest.mark.parametrize("dim,m,depth,theta", [(2, 1, 6, 1.5), (3, 1, 3, 2.0), (3, 2, 3, 1.5), (4, 2, 2, 1.5)])
def test_batched_proof_chain_matches_per_level_calls(dim, m, depth, theta):
    # every level's slices ride on the batch axis of one evaluator call;
    # a batch row sums its own terms, so each slice keeps its bits
    lat = make_lattice(dim, depth)
    f = rand_f(lat, 95 + depth)
    for w in (rand_w(lat, 96 + depth, rough=0.8), _zero_block(lat, 97 + depth)):
        got = _proof_chain(f, w, theta, 4.0, 2.0, m)
        want = _per_level_chain(f, w, theta, 4.0, 2.0, m)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim,m,depth", [(2, 1, 5), (2, 1, 6), (3, 1, 3), (3, 2, 3)])
def test_embedding_total_adds_level_tuples_in_product_order(dim, m, depth):
    # the pyramids hand out level tuples stack by stack; the total runs
    # over every tuple's terms in product order, as a loop over the level
    # pairs does (a positive weight, so no term is left out), and is
    # their correctly rounded sum
    lat = make_lattice(dim, depth)
    f, w = rand_f(lat, 81 + depth), rand_w(lat, 82 + depth, rough=1.2)
    for theta, r, s in ((1.5, 4.0, 2.0), (2.0, 3.0, 1.5)):
        total = embed._embeddings(f.values, w.density, lat, theta, r, s, m)[2]
        terms = []
        for levels in product(range(depth + 1), repeat=2):
            terms += _former_level(f, w, theta, r, s, levels, m, _pyramid_level)
        assert float(total) == math.fsum(terms)
