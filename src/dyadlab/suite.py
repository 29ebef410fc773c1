"""Built-in verification suite: one deterministic row per check.

Every check draws its randomness from the config seed through substream,
computes a measured quantity and the bound it must respect, and returns a
CheckRow.  The runner sorts rows by name so execution order never shows
in a report.  Scales are deliberately small; the acceptance tests push
the same inequalities much harder.
"""

from __future__ import annotations

import csv
import io
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bump import (
    Exponents,
    _bump_map,
    bump_cube,
    bump_rect,
    characteristic,
    characteristic_at,
    random_partition,
    slice_profile,
)
from .embed import automatic_carleson, embed_check_cubes, embed_check_rects, good_carleson
from .forms import (
    KernelHandle,
    apply_frac_integral,
    bilinear_form,
    goodbad_split,
    norm_estimate,
    surrogate_kernels,
)
from .grids import (
    GoodnessParams,
    bad_probability_mc,
    onethird_grids,
    sample_grid,
    sandwiches,
    verify_grid,
)
from .lattice import (
    GridFunction,
    Weight,
    _cellwise,
    _check_int,
    _level_masses,
    box_masses,
    doubling_report,
    full_rect,
    gen_weight,
    integrate,
    make_lattice,
    refine_function,
    refine_weight,
    strong_rd_doubling_bound,
    substream,
)
from .weightio import read_weight, write_weight

__all__ = ["CheckRow", "rows_to_csv", "rows_to_json", "run_suite"]


@dataclass(frozen=True)
class CheckRow:
    name: str
    params: str
    lhs: float
    bound: float
    passed: bool
    witness: str = ""

    @property
    def ratio(self) -> float:
        if self.bound > 0.0:
            return self.lhs / self.bound
        return 1.0 if self.lhs == self.bound else math.inf


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "parameters", "lhs", "bound", "ratio", "pass", "witness"])
    for r in rows:
        writer.writerow(
            [r.name, r.params, _fmt(r.lhs), _fmt(r.bound), _fmt(r.ratio), str(r.passed).lower(), r.witness]
        )
    return buf.getvalue()


def rows_to_json(rows) -> str:
    payload = [
        {
            "check": r.name,
            "parameters": r.params,
            "lhs": float(r.lhs),
            "bound": float(r.bound),
            "ratio": float(r.ratio),
            "pass": bool(r.passed),
            "witness": r.witness,
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def _lebesgue(lat):
    return gen_weight(lat, {"kind": "constant", "value": 1.0})


def _lognormal(lat, seed, rough=0.6):
    return gen_weight(lat, {"kind": "random_lognormal", "seed": seed, "roughness": rough})


def _rand_f(lat, seed):
    rng = substream(seed, 9100)
    return GridFunction(lat, np.exp(0.7 * rng.standard_normal(lat.shape)))


# ---------------------------------------------------------------------------
# lattice layer


def _check_prefix_agreement(depth, seed):
    lat = make_lattice(1, depth)
    w = _lognormal(lat, seed + 1, rough=0.8)
    rng = substream(seed, 111)
    cells = lat.cells_per_axis
    worst = 0.0
    edges = []
    for _ in range(200):
        a = int(rng.integers(0, cells))
        edges.append((a, int(rng.integers(a + 1, cells + 1))))
    lo, hi = (np.array(e) for e in zip(*edges))
    for (a, b), fast in zip(edges, box_masses(w.prefix(1.0), (lo,), (hi,)).tolist()):
        naive = float(w.density[a:b].sum() * 2.0**-depth)
        if naive > 0:
            worst = max(worst, abs(fast - naive) / naive)
    return CheckRow(
        "lattice/prefix-vs-naive", f"depth={depth} boxes=200", worst, 1e-12, worst <= 1e-12
    )


def _check_partition_additivity(depth, seed):
    lat = make_lattice(1, depth)
    w = _lognormal(lat, seed + 2)
    parts = random_partition(lat, seed + 3)
    total = integrate(w, full_rect(lat))
    summed = math.fsum(_part_bumps(w, parts, 1.0))
    err = abs(summed - total) / total
    return CheckRow(
        "lattice/partition-additivity", f"depth={depth} parts={len(parts)}", err, 1e-12, err <= 1e-12
    )


def _check_halfspace_doubling(depth):
    lat = make_lattice(1, depth)
    w = gen_weight(lat, {"kind": "halfspace_cutoff"})
    rep = doubling_report(w, "cube")
    wit = rep.witnesses.get("doubling")
    ok = rep.infinite and wit is not None and math.isinf(wit.reevaluate(w))
    return CheckRow(
        "lattice/halfspace-nondoubling",
        f"depth={depth}",
        1.0 if ok else 0.0,
        1.0,
        ok,
        witness="" if wit is None else f"box={wit.rect.lo}..{wit.rect.hi}",
    )


def _check_halfspace_reverse(depth):
    lat = make_lattice(1, depth)
    w = gen_weight(lat, {"kind": "halfspace_cutoff"})
    rep = doubling_report(w, "product_reverse")
    eps = min(rep.rev_eps) if rep.rev_eps else 0.0
    return CheckRow(
        "lattice/halfspace-product-reverse",
        f"depth={depth}",
        eps,
        0.0,
        rep.passes_reverse and eps > 0.0,
    )


def _check_strong_bound(depth, seed):
    """Weights certified strongly-beta-reverse-doubling by the scan must
    measure a doubling constant below the explicit chain bound at beta."""
    beta = 0.75
    lat = make_lattice(1, min(depth, 6))
    candidates = [
        _lebesgue(lat),
        gen_weight(lat, {"kind": "checkerboard", "levels": 2}),
        _lognormal(lat, seed + 8, rough=0.25),
        _lognormal(lat, seed + 9, rough=0.3),
    ]
    bound = strong_rd_doubling_bound(beta)
    worst = 0.0
    qualified = 0
    for w in candidates:
        strong = doubling_report(w, "strong")
        if strong.strong_absent or strong.strong_beta > beta:
            continue
        qualified += 1
        measured = doubling_report(w, "rectangle")
        worst = max(worst, measured.constant / bound.doubling_constant)
    return CheckRow(
        "lattice/strong-bound-dominates",
        f"beta={beta} depth={lat.depth} qualified={qualified}",
        worst,
        1.0,
        qualified >= 2 and worst <= 1.0,
    )


def _check_wgt_roundtrip(depth, seed):
    lat = make_lattice(1, depth)
    w = _lognormal(lat, seed + 4, rough=0.9)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.wgt"
        write_weight(path, w)
        back = read_weight(path)
    diff = float(np.max(np.abs(back.density - w.density)))
    return CheckRow("lattice/wgt1-roundtrip", f"depth={depth}", diff, 0.0, diff == 0.0)


# ---------------------------------------------------------------------------
# grid layer


def _check_grid_nesting(depth, seed):
    ok = True
    try:
        verify_grid(sample_grid(seed + 5, 1, 0, depth))
        verify_grid(sample_grid(seed + 6, 2, 0, min(depth, 6)))
    except Exception:
        ok = False
    return CheckRow("grids/nesting", f"depth={depth} n=2", 1.0 if ok else 0.0, 1.0, ok)


def _sandwich_cubes(seed):
    """The sandwich check's 3000 intervals, drawn as the former per-interval
    uniform(4.5, 12.0) and uniform(0.0, 1.0 - 3 side) calls drew them (a
    uniform draw is low + (high - low) * random()), and their grid index,
    level and cube index."""
    rng = substream(seed, 222)
    r = rng.random((3000, 2))
    side = np.array([2.0 ** -e for e in (4.5 + 7.5 * r[:, 0]).tolist()])
    lo = (1.0 - 3.0 * side) * r[:, 1]
    return side, *sandwiches(lo[:, None], side, 0, onethird_grids(1, 0, 16))


def _check_sandwich(seed):
    side, _, level, _ = _sandwich_cubes(seed)
    worst = float(np.max(np.ldexp(1.0, -level) / side))
    return CheckRow("grids/sandwich-expansion", f"n={len(side)}", worst, 18.0, worst <= 18.0)


def _check_bad_prob(seed, eps, name, need_informative):
    lo = bad_probability_mc(4, eps, 3000, seed + 7)
    hi = bad_probability_mc(12, eps, 3000, seed + 7)
    bound = 4.0 * 2.0**-2 * lo.p_hat + lo.half_width + hi.half_width
    ok = hi.p_hat <= bound
    if need_informative:
        ok = ok and lo.p_hat < 1.0
    return CheckRow(name, f"eps={eps} samples=3000", hi.p_hat, bound, ok)


# ---------------------------------------------------------------------------
# bump layer


def _part_bumps(w, parts, theta):
    """bump_cube of every cube of a dyadic partition, in order, read from
    one pass of the dyadic pyramid of w**theta: the bits bump_cube sums
    from each cube's own cells.  At theta = 1 they are the masses."""
    lat = w.lattice
    lo, hi = np.array([r.lo for r in parts]), np.array([r.hi for r in parts])
    level = lat.depth - np.log2(hi[:, 0] - lo[:, 0]).astype(int)
    out = np.empty(len(parts))
    for (lv,), masses in _level_masses(_cellwise(lat, w.density, theta), lat):
        at = level == lv
        if at.any():
            idx = lo[at] >> (lat.depth - lv)
            out[at] = _bump_map(masses[tuple(idx.T)], 2.0 ** (-lv * lat.dim), theta)
    return out


def _check_subadditivity(depth, depth2, seed):
    worst = 0.0
    cases = [(make_lattice(1, depth), 30), (make_lattice(2, depth2), 10)]
    for lat, count in cases:
        for k in range(count):
            w = _lognormal(lat, seed + 10 + k, rough=0.7)
            parts = random_partition(lat, seed + 50 + k)
            whole = bump_cube(full_rect(lat), w, 2.0)
            summed = math.fsum(_part_bumps(w, parts, 2.0))
            if whole > 0:
                worst = max(worst, summed / whole)
    return CheckRow(
        "bump/subadditivity", f"theta=2 n=40 depths={depth},{depth2}", worst, 1.0 + 1e-9, worst <= 1.0 + 1e-9
    )


def _check_holder_direction(depth, seed):
    lat = make_lattice(1, depth)
    worst = 0.0
    for k in range(20):
        w = _lognormal(lat, seed + 100 + k, rough=0.7)
        parts = random_partition(lat, seed + 130 + k)
        mass = _part_bumps(w, parts, 1.0)
        bump = _part_bumps(w, parts, 1.5)
        pos = bump > 0
        if pos.any():
            worst = max(worst, float(np.max(mass[pos] / bump[pos])))
    return CheckRow(
        "bump/mass-below-bump", f"theta=1.5 n=20 depth={depth}", worst, 1.0 + 1e-9, worst <= 1.0 + 1e-9
    )


def _check_iterated_identity(depth2, seed):
    lat = make_lattice(2, depth2)
    lat1 = make_lattice(1, depth2)
    worst = 0.0
    for k in range(15):
        rng = substream(seed, 333, k)
        a = np.exp(0.6 * rng.standard_normal(lat1.shape))
        b = np.exp(0.6 * rng.standard_normal(lat1.shape))
        w = Weight(lat, np.outer(a, b))
        j_rect = full_rect(lat1)
        nu = slice_profile(j_rect, w, 2.0)
        direct = bump_rect(full_rect(lat1), j_rect, w, 2.0)
        iterated = bump_cube(full_rect(lat1), nu, 2.0)
        if direct > 0:
            worst = max(worst, abs(direct - iterated) / direct)
    return CheckRow(
        "bump/iterated-identity", f"theta=2 n=15 depth={depth2}", worst, 1e-9, worst <= 1e-9
    )


def _check_witness_reevaluation(depth2, seed):
    lat = make_lattice(2, depth2)
    sig = _lognormal(lat, seed + 140)
    om = _lognormal(lat, seed + 141)
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=1.5)
    worst = 0.0
    wit_desc = ""
    for kind in ("product_bump", "no_bump"):
        res = characteristic(kind, None, sig, om, exps)
        again = characteristic_at(kind, None, res.witness, sig, om, exps)
        worst = max(worst, abs(again - res.value))
        wit = res.witness
        wit_desc = f"levels={wit.i_cube.level}|{wit.j_cube.level}"
    return CheckRow(
        "bump/witness-reevaluation", f"depth={depth2}", worst, 0.0, worst == 0.0, witness=wit_desc
    )


# ---------------------------------------------------------------------------
# embedding layer


def _check_automatic_lebesgue(depth):
    lat = make_lattice(1, depth)
    rep = automatic_carleson(full_rect(lat), _lebesgue(lat), 2.0, 2.0)
    want = 2.0 - 2.0**-depth
    err = abs(rep.lhs_sum - want) / want
    return CheckRow(
        "embed/automatic-lebesgue", f"theta=2 rho=2 depth={depth}", err, 1e-12, err <= 1e-12
    )


def _check_automatic_random(depth, seed):
    lat = make_lattice(1, depth)
    worst = 0.0
    for theta, rho in ((2.0, 2.0), (1.5, 3.0), (3.0, 1.5)):
        for k in range(10):
            w = _lognormal(lat, seed + 160 + k, rough=0.8)
            rep = automatic_carleson(full_rect(lat), w, theta, rho)
            worst = max(worst, rep.ratio)
    return CheckRow(
        "embed/automatic-random", f"n=30 depth={depth}", worst, 1.0 + 1e-9, worst <= 1.0 + 1e-9
    )


def _check_good_carleson(depth, seed):
    lat = make_lattice(1, depth)
    params = GoodnessParams(0.25, 2)
    weights = [_lebesgue(lat), gen_weight(lat, {"kind": "halfspace_cutoff"})]
    for k in range(5):
        w = gen_weight(lat, {"kind": "cascade", "beta": 0.7, "seed": seed + 170 + k})
        if doubling_report(w, "product_reverse").passes_reverse:
            weights.append(w)
    worst = 0.0
    for w in weights:
        rep = good_carleson(full_rect(lat), w, 2.0, params)
        worst = max(worst, rep.ratio)
    return CheckRow(
        "embed/good-carleson",
        f"rho=2 eps=0.25 r=2 n={len(weights)}",
        worst,
        1.0 + 1e-9,
        worst <= 1.0 + 1e-9,
    )


def _check_embed_stability(depth, seed):
    base = depth - 2
    lat = make_lattice(1, base)
    worst = 0.0
    for k in range(20):
        w = _lognormal(lat, seed + 200 + k, rough=0.7)
        f = _rand_f(lat, seed + 230 + k)
        shallow = embed_check_cubes(f, w, 2.0, 4.0, 2.0).ratio
        deep = embed_check_cubes(
            refine_function(f, 2), refine_weight(w, 2), 2.0, 4.0, 2.0
        ).ratio
        if shallow > 0:
            worst = max(worst, deep / shallow)
    return CheckRow(
        "embed/cube-ratio-stability",
        f"depths={base}->{depth} n=20",
        worst,
        1.1,
        worst <= 1.1,
    )


def _check_embed_rect_chain(depth2, seed):
    lat = make_lattice(2, depth2)
    worst = 0.0
    for k in range(5):
        w = _lognormal(lat, seed + 260 + k)
        f = _rand_f(lat, seed + 280 + k)
        rep = embed_check_rects(f, w, 2.0, 4.0, 2.0, m=1)
        bound = rep.max_slice_ratio * rep.max_point_ratio * rep.rhs_norm
        if bound > 0:
            worst = max(worst, rep.lhs / bound)
    return CheckRow(
        "embed/rect-chain", f"n=5 depth={depth2}", worst, 1.0 + 1e-6, worst <= 1.0 + 1e-6
    )


# ---------------------------------------------------------------------------
# forms layer


def _check_bilinear_lebesgue(depth2):
    lat = make_lattice(2, depth2)
    w = _lebesgue(lat)
    one = GridFunction(lat, np.ones(lat.shape))
    got = bilinear_form(KernelHandle.product_frac(0.5, 0.5, 1, 1), w, w, one, one).total
    axis = (1.0 - 2.0 ** (-(depth2 + 1) / 2.0)) / (1.0 - 2.0**-0.5)
    err = abs(got - axis**2) / axis**2
    return CheckRow(
        "forms/bilinear-lebesgue", f"alpha=beta=0.5 depth={depth2}", err, 1e-12, err <= 1e-12
    )


def _check_goodbad_identity(depth2, seed):
    lat = make_lattice(2, depth2)
    kern = KernelHandle.product_frac(0.5, 0.5, 1, 1)
    worst = 0.0
    for k in range(5):
        sig = _lognormal(lat, seed + 300 + k)
        om = _lognormal(lat, seed + 320 + k)
        f = _rand_f(lat, seed + 340 + k)
        g = _rand_f(lat, seed + 360 + k)
        split = goodbad_split(kern, sig, om, f, g, GoodnessParams(0.25, 4))
        direct = bilinear_form(kern, sig, om, f, g).total
        worst = max(worst, abs(split.total - direct) / direct)
        if split.total > sum(split.parts) * (1 + 1e-9):
            worst = math.inf
    return CheckRow(
        "forms/goodbad-identity", f"eps=0.25 r=4 n=5 depth={depth2}", worst, 1e-9, worst <= 1e-9
    )


def _check_frac_far_field(depth2):
    lat = make_lattice(2, depth2)
    h = 2.0**-depth2
    vals = np.zeros(lat.shape)
    vals[1, 2] = 1.0
    out = apply_frac_integral(GridFunction(lat, vals), 0.5, 0.5, 1, 1)
    probe = (lat.cells_per_axis - 2, lat.cells_per_axis - 3)
    dx = abs(probe[0] - 1) * h
    dy = abs(probe[1] - 2) * h
    want = dx**-0.5 * h * dy**-0.5 * h
    err = abs(out.values[probe] - want) / want
    return CheckRow("forms/frac-far-field", f"depth={depth2}", err, 0.01, err <= 0.01)


def _check_norm_floor(depth2, seed):
    lat = make_lattice(2, depth2 - 1)
    kern = KernelHandle.product_frac(0.5, 0.5, 1, 1)
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5)
    worst = 0.0
    for k in range(5):
        sig = _lognormal(lat, seed + 400 + k)
        om = _lognormal(lat, seed + 420 + k)
        est = norm_estimate(kern, sig, om, exps, iterations=3, seed=seed + k)
        char = characteristic("no_bump", None, sig, om, exps, family="dyadic")
        if est.lower_bound > 0:
            worst = max(worst, char.value / est.lower_bound)
    return CheckRow(
        "forms/norm-dominates-characteristic",
        f"n=5 depth={depth2 - 1}",
        worst,
        1.0,
        worst <= 1.0,
    )


def _check_norm_sandwich(depth2, seed):
    lat = make_lattice(2, depth2 - 1)
    kern = KernelHandle.product_frac(0.5, 0.5, 1, 1)
    theta = 1.5
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=theta)
    worst = 0.0
    for k in range(3):
        sig = _lognormal(lat, seed + 440 + k)
        om = _lognormal(lat, seed + 460 + k)
        est = norm_estimate(kern, sig, om, exps, iterations=4, seed=seed + k)
        r_mid = math.sqrt(exps.p * exps.q)
        r_conj = r_mid / (r_mid - 1.0)
        ratio_sig = embed_check_rects(est.best_f, sig, theta, r_mid, exps.p, m=1).ratio
        ratio_om = embed_check_rects(est.best_g, om, theta, r_conj, exps.q_prime, m=1).ratio
        char = characteristic("product_bump", None, sig, om, exps, family="dyadic")
        bound = ratio_sig * ratio_om * char.value
        if bound > 0:
            worst = max(worst, est.lower_bound / bound)
    return CheckRow(
        "forms/norm-sandwich", f"theta=1.5 n=3 depth={depth2 - 1}", worst, 1.0 + 1e-9, worst <= 1.0 + 1e-9
    )


def _surrogate_window(seed):
    """The surrogate-window check's 400 quadruples (x, y, u, v) and their
    kernel values.  Quadruples are drawn in chunks of the stream that the
    former draws of four read, and the first 400 that share no finest cell
    are kept, in draw order."""
    # Coarse levels down to -4 approximate the all-scales shifted-grid sum;
    # cutting at level 0 leaves the window's low end to rare far-separation
    # events and the spread then swings across seeds.
    kern = KernelHandle.product_frac(0.5, 0.5, 1, 1)
    grids = onethird_grids(1, -4, 8)
    rng = substream(seed, 555)
    quads, vals = [], []
    while sum(map(len, vals)) < 400:
        q = rng.uniform(0.0, 1.0, size=(512, 4))
        got = surrogate_kernels(kern, q[:, :1], q[:, 1:2], q[:, 2:3], q[:, 3:], grids, grids)
        kept = ~np.isnan(got)
        quads.append(q[kept])
        vals.append(got[kept])
    return np.concatenate(quads)[:400], np.concatenate(vals)[:400]


def _check_surrogate_window(seed):
    quads, vals = _surrogate_window(seed)
    # the continuum kernel is the former scalar expression, row by row
    ratios = [got / (abs(x - u) * abs(y - v)) ** -0.5 for got, (x, y, u, v) in zip(vals, quads)]
    spread = max(ratios) / min(ratios)
    return CheckRow(
        "forms/surrogate-window", "n=400 levels=-4..8", spread, 100.0, spread <= 100.0
    )


# ---------------------------------------------------------------------------
# report layer


def _determinism_row(depth2, seed):
    a = rows_to_csv([_check_bilinear_lebesgue(depth2), _check_sandwich(seed)])
    b = rows_to_csv([_check_bilinear_lebesgue(depth2), _check_sandwich(seed)])
    same = a == b
    return CheckRow("report/determinism", f"seed={seed}", 1.0 if same else 0.0, 1.0, same)


def _user_weight_rows(label, w, seed):
    rows = []
    parts = random_partition(w.lattice, seed + 900)
    whole = bump_cube(full_rect(w.lattice), w, 2.0)
    summed = math.fsum(_part_bumps(w, parts, 2.0))
    ratio = summed / whole if whole > 0 else 0.0
    rows.append(
        CheckRow(
            f"user/{label}/subadditivity", "theta=2", ratio, 1.0 + 1e-9, ratio <= 1.0 + 1e-9
        )
    )
    rep = automatic_carleson(full_rect(w.lattice), w, 2.0, 2.0)
    rows.append(
        CheckRow(
            f"user/{label}/automatic-carleson", "theta=2 rho=2", rep.ratio, 1.0 + 1e-9, rep.passes
        )
    )
    return rows


def run_suite(depth: int = 8, depth_2d: int = 5, seed: int = 0, extra_weights=None) -> list[CheckRow]:
    """Every check's row, sorted by name.  Two lattice sizes are refused
    with DomainError before any check runs: depth < 8, where the cube
    embedding ratio of depth - 2 and depth (embed/cube-ratio-stability)
    passes its fixed 1.1 bound only on some seeds, and depth_2d < 2, as
    the far-field check puts a point mass on cell (1, 2) of the 2D
    lattice.  A 1D or 2D lattice that make_lattice refuses is refused
    before any check runs too."""
    depth, depth_2d = _check_int("depth", depth, 8), _check_int("depth_2d", depth_2d, 2)
    make_lattice(1, depth)
    make_lattice(2, depth_2d)
    rows = [
        _check_prefix_agreement(depth, seed),
        _check_partition_additivity(depth, seed),
        _check_halfspace_doubling(depth),
        _check_halfspace_reverse(depth),
        _check_strong_bound(depth, seed),
        _check_wgt_roundtrip(depth, seed),
        _check_grid_nesting(depth, seed),
        _check_sandwich(seed),
        _check_bad_prob(seed, 0.25, "grids/bad-prob-decay", need_informative=False),
        _check_bad_prob(seed, 0.9, "grids/bad-prob-informative", need_informative=True),
        _check_subadditivity(depth, depth_2d, seed),
        _check_holder_direction(depth, seed),
        _check_iterated_identity(depth_2d, seed),
        _check_witness_reevaluation(depth_2d, seed),
        _check_automatic_lebesgue(depth),
        _check_automatic_random(depth, seed),
        _check_good_carleson(depth, seed),
        _check_embed_stability(depth, seed),
        _check_embed_rect_chain(depth_2d, seed),
        _check_bilinear_lebesgue(depth_2d),
        _check_goodbad_identity(depth_2d, seed),
        _check_frac_far_field(depth_2d),
        _check_norm_floor(depth_2d, seed),
        _check_norm_sandwich(depth_2d, seed),
        _check_surrogate_window(seed),
        _determinism_row(depth_2d, seed),
    ]
    for label, w in extra_weights or []:
        rows.extend(_user_weight_rows(label, w, seed))
    return sorted(rows, key=lambda r: r.name)
