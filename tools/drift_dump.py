"""Dump every reported number of a checkout, or compare two dumps.

    python tools/drift_dump.py --seed 0 --out new.json
    python tools/drift_dump.py --src OTHER/src --seed 0 --out old.json
    python tools/drift_dump.py --compare old.json new.json

A dump holds, with all their digits, every row of `dyadlab verify` at the
given seed (default depths), the (u, level, index) of each of the 3000
intervals behind the grids/sandwich-expansion row and each of the 400
kernel values behind the forms/surrogate-window row (so a changed cube or
value shows even where the row's worst ratio does not move), and the values
and witnesses of the benchmark's
scan2d and norm2d task calls on the first --units weight pairs of that seed
(inputs from bench/workloads.py), plus the product-reverse report
(exponents, per_scale ratios and witnesses) of each scan2d omega at 2D
depth 5, the cube doubling scan of each scan2d sigma, the rectangle and
strong doubling scans of each scan2d weight at 2D depth 4, the cube and
rectangle scans of a seeded lognormal weight at 1D depth 12 and 3D depth
4, the rectangle scan of the first scan2d omega at 2D depth 6, where
block passes bound bands of sizes, and the cube, rectangle, strong and
product-reverse scans of a seeded lognormal weight with a block of zero cells and of the constant,
halfspace_cutoff and checkerboard weights, whose placements tie, also at
2D depth 4, and the norm estimates of the first norm2d pair under
a level-table kernel, over a family_of family holding a duplicated
rectangle (per-rectangle coefficient arrays, and a fourth start seeded
by the family's floor rectangle), over that family under a table holding
only its level pairs, and over dyadic_family under the level table, with
a digest of the bytes of each returned pair, the norm estimate and both
embedding checks of the norm2d task at 3D depth 3 with a first factor of
one axis and of two, and the single-box reads of a seeded 2D depth-5 beta = 0.9
cascade: integrate, power_integrate, bump_cube, bump_rect and box_mass on
whole-cell boxes, box_mass on boxes with edges on thirds of a cell (its oracle at the
edges' float values), and
characteristic_at on a shifted-grid rectangle and on one finer than the
lattice, characteristic_at on one-third rectangles no scan needs to pick
(a level-0 box, boxes clipped at either edge, an interior and a
finest-level box, and a 3D box with m = 2), and the one-third no_bump scan at 2D depth 4 of a pair whose
sigma lies near the float64 maximum and is summed at 2^-7 of its size,
beside an omega summed at scale 1.  Each characteristic value (the
one-third scan's included, the single-box ones too), each single-box
read, each cube, rectangle and
strong doubling value and each product-reverse witness value and
per_scale ratio, and each embedding's lhs, intermediate and
max_slice_ratio also records, as NAME/oracle, its recomputation from
exact masses: the value at the
reported witness, every cell counted by the share of it the box covers,
the witness's ratio of math.fsum masses, the greatest such ratio over
every tile of the scale, the lhs over every box, with f * density summed
exactly, and the proof chain's two over every slice, its profile,
average and masses summed the same way.  dyadlab is imported from --src,
the src/ directory next to this script unless given, so one script
dumps any checkout.  --compare prints every quantity (a name with its
unit and list index wildcarded) that moved, with its worst relative and
absolute drift and where it happened, then the distance to its oracle
before and after of every moved value that has one, then every witness,
pass flag or other text field that differs; it exits 1 when any number (compared bit
for bit) or text field differs and 0 when every bit is kept.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import struct
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the rectangle and strong doubling scans loop over size tuples in Python,
# so they are dumped on a small lattice
DOUBLING_DEPTH = 4
# the product-reverse per-scale oracle sums every tile and shrink with
# math.fsum: about 4e4 box sums per weight at 2D depth 5
PER_SCALE_DEPTH = 5
# (dim, depth) of the lattices whose cube and rectangle scans run the
# block pass on most sizes
BLOCK_SHAPES = ((1, 12), (3, 4))
# the 2D depth of the rectangle scan whose sizes reach the block and band
# passes
BAND_DEPTH = 6
# the single-box reads' lattice (2D) and seeded boxes per read
SINGLE_DEPTH = 5
SINGLE_BOXES = 6
# the 2D depth of the one-third scan whose sigma lies near the float64
# maximum
SCALED_DEPTH = 4
# the depth of the 3D lattice whose norm estimates and rectangle
# embeddings run with a first factor of 1 and of 2 axes
THREE_D_DEPTH = 3


def _fsum_mass(cells, box) -> float:
    return math.fsum(cells[box].ravel().tolist())


def _ratio_oracle(cells, wit) -> float:
    """A witness's ratio, mass(other) / mass(rect), each mass the
    math.fsum of its cells."""
    num, den = (
        _fsum_mass(cells, tuple(slice(a, b) for a, b in zip(r.lo, r.hi)))
        for r in (wit.other, wit.rect)
    )
    if den == 0.0:
        return math.inf if num > 0.0 else 0.0
    return num / den


def _exact_mass(cells, box, per: int = 3) -> float:
    """The mass of a box given per axis as (lo, hi) in 1/per of a cell
    (thirds by default): each cell's value times the parts of it the box
    covers, summed exactly and divided by per per axis (math.fsum on
    whole cells)."""
    import numpy as np

    if all(a % per == 0 and b % per == 0 for a, b in box):
        return _fsum_mass(cells, tuple(slice(a // per, b // per) for a, b in box))
    counts = np.ones((), dtype=object)
    for a, b in box:
        j = np.arange(a // per, -(-b // per))
        counts = np.multiply.outer(counts, np.minimum(b, per * j + per) - np.maximum(a, per * j))
    sel = cells[tuple(slice(a // per, -(-b // per)) for a, b in box)]
    total = sum(Fraction(v) * int(c) for v, c in zip(sel.ravel().tolist(), counts.ravel().tolist()))
    return float(total / per ** len(box))


def _share_mass(cells, lo, hi) -> float:
    """The mass of a box whose float edges, in cell units, are taken
    exactly: each cell's value times the share of it the box covers,
    summed exactly."""
    import itertools

    shares = []
    for a, b in zip(lo, hi):
        a, b = Fraction(a), Fraction(b)
        shares.append([(c, min(b, c + 1) - max(a, c)) for c in range(math.floor(a), math.ceil(b))])
    total = Fraction(0)
    for pick in itertools.product(*shares):
        part = Fraction(float(cells[tuple(c for c, _ in pick)]))
        for _, share in pick:
            part *= share
        total += part
    return float(total)


def _bump_oracle(mass: float, vol: float, theta: float) -> float:
    """The bump map of an exact mass, as the code applies it."""
    import numpy as np

    return float(vol ** (1.0 - 1.0 / theta) * np.power(np.array([mass]), 1.0 / theta)[0])


def _per_scale_oracle(w) -> dict:
    """The product-reverse scan's per_scale by brute force: per tested
    key, ("axis", k, s) or ("cube", s), the greatest fl(fsum(shrink) /
    fsum(tile)) over the tiles of positive mass of every level tuple, the
    shrink concentric, 2^-s of the tile's side on axis k or on every axis
    (cube keys on cubes only)."""
    import itertools

    import numpy as np

    lat = w.lattice
    depth, dim, n = lat.depth, lat.dim, lat.cells_per_axis
    cells = w.density * lat.cell_volume
    best: dict = {}
    for levels in itertools.product(range(depth + 1), repeat=dim):
        sides = [n >> lv for lv in levels]
        keys = [(("axis", k, s), (k,)) for k in range(dim) for s in range(1, depth - levels[k])]
        if len(set(levels)) == 1:
            keys += [(("cube", s), range(dim)) for s in range(1, depth - levels[0])]
        for idx in np.ndindex(*[1 << lv for lv in levels]):
            lo = [i * side for i, side in zip(idx, sides)]
            tile = _fsum_mass(cells, tuple(slice(a, a + side) for a, side in zip(lo, sides)))
            if tile <= 0.0:
                continue
            for key, axes in keys:
                box = [slice(a, a + side) for a, side in zip(lo, sides)]
                for k in axes:
                    inner = sides[k] >> key[-1]
                    start = lo[k] + (sides[k] - inner) // 2
                    box[k] = slice(start, start + inner)
                r = _fsum_mass(cells, tuple(box)) / tile
                best[key] = max(best.get(key, r), r)
    return best


def _char_oracle(kind: str, witness, sigma, omega, exps) -> float:
    """The characteristic's value at a witness, its masses exact sums of
    the box's share of each cell of density**theta * cell_volume, the box
    clipped to the unit box."""
    import numpy as np

    cubes = (witness,) if kind == "one_param" else (witness.i_cube, witness.j_cube)
    lat = sigma.lattice
    # a unit that divides every edge: thirds of a cell for std and
    # one-third cubes at levels 0..depth
    top = math.lcm(3 << lat.depth, *(x.denominator for c in cubes for side in c.bounds() for x in side))
    box, vol, kval = [], 1.0, 1.0
    for c, k_exp in zip(cubes, (exps.alpha / exps.m - 1.0, exps.beta / exps.n - 1.0)):
        box += [(min(max(int(a * top), 0), top), min(max(int(b * top), 0), top)) for a, b in zip(*c.bounds())]
        side_vol = 2.0 ** (-c.level * c.grid.dim)
        vol, kval = vol * side_vol, kval * side_vol**k_exp
    bumped = {"no_bump": (False, False), "half_bump_omega": (False, True)}.get(kind, (True, True))
    bumps = []
    for w, b in zip((sigma, omega), bumped):
        t = exps.theta if b else 1.0
        mass = _exact_mass(np.power(w.density, t) * lat.cell_volume, box, top >> lat.depth)
        bumps.append(np.array([_bump_oracle(mass, vol, t)]))
    out = kval * np.power(bumps[0], 1.0 / exps.p_prime) * np.power(bumps[1], 1.0 / exps.q)
    return float(out[0])


def _two_product(a, b):
    """p + e == a * b exactly, elementwise (Dekker's split)."""
    p = a * b

    def split(x):
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi

    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _embed_oracle(f, w, theta: float, r: float, s: float, m: int) -> float:
    """embed_check_rects' lhs, every mass the math.fsum of its cells and
    every term summed by math.fsum."""
    import numpy as np

    lat = w.lattice
    cells = np.power(w.density, theta) * lat.cell_volume
    prod, err = (a * lat.cell_volume for a in _two_product(f.values, w.density))
    terms = []
    for li in range(lat.depth + 1):
        for lj in range(lat.depth + 1):
            sides = [lat.cells_per_axis >> li] * m + [lat.cells_per_axis >> lj] * (lat.dim - m)
            shape = tuple(lat.cells_per_axis // a for a in sides)
            mu, mf = np.empty(shape), np.empty(shape)
            for idx in np.ndindex(*shape):
                box = tuple(slice(i * a, (i + 1) * a) for i, a in zip(idx, sides))
                mu[idx] = _fsum_mass(cells, box)
                mf[idx] = math.fsum(prod[box].ravel().tolist() + err[box].ravel().tolist())
            vol = 2.0 ** -(li * m + lj * (lat.dim - m))
            b = vol ** (1.0 - 1.0 / theta) * np.power(mu, 1.0 / theta)
            pos = b > 0.0
            terms += np.power(mf[pos] * np.power(b[pos], 1.0 / s - 1.0), r).tolist()
    return math.fsum(terms) ** (1.0 / r)


def _cube_oracle(g, dens, theta: float, r: float, s: float) -> tuple[float, float]:
    """(lhs, L^s norm) of the cube embedding of cellwise g under the
    density dens, every mass the math.fsum of its cells, g * dens summed
    exactly, and the terms and the norm's cells summed by math.fsum."""
    import numpy as np

    dim, cells = g.ndim, g.shape[0]
    vol = float(cells) ** -dim
    powered = np.power(dens, theta) * vol
    prod, err = (a * vol for a in _two_product(g, dens))
    terms = []
    for level in range(cells.bit_length()):
        side = cells >> level
        for idx in np.ndindex(*(1 << level,) * dim):
            box = tuple(slice(i * side, (i + 1) * side) for i in idx)
            b = (2.0 ** (-level * dim)) ** (1.0 - 1.0 / theta) * _fsum_mass(powered, box) ** (1.0 / theta)
            if b > 0.0:
                mf = math.fsum(prod[box].ravel().tolist() + err[box].ravel().tolist())
                terms.append((mf * b ** (1.0 / s - 1.0)) ** r)
    norm = math.fsum(np.concatenate([x.ravel() for x in _two_product(np.power(g, s), dens)]).tolist())
    return math.fsum(terms) ** (1.0 / r), (norm * vol) ** (1.0 / s)


def _slice_oracle(f, w, theta: float, r: float, s: float, m: int) -> tuple[float, float]:
    """embed_check_rects' intermediate and max_slice_ratio: per dyadic J of
    the last axes, its slice profile and the slice average of f, each
    slice's mass the math.fsum of its cells, f * density summed exactly,
    then _cube_oracle of the two, the sum over J by math.fsum."""
    import numpy as np

    lat = w.lattice
    n, cells = lat.dim - m, lat.cells_per_axis
    vol = float(cells) ** -n
    powered = np.power(w.density, theta) * vol
    prod, err = (a * vol for a in _two_product(f.values, w.density))
    rhs_r, ratio = [], 0.0
    for lj in range(lat.depth + 1):
        side = cells >> lj
        for j in np.ndindex(*(1 << lj,) * n):
            mu, h = np.empty((cells,) * m), np.empty((cells,) * m)
            for x in np.ndindex(*mu.shape):
                box = x + tuple(slice(i * side, (i + 1) * side) for i in j)
                mu[x] = _fsum_mass(powered, box)
                h[x] = math.fsum(prod[box].ravel().tolist() + err[box].ravel().tolist())
            dens = (2.0 ** (-lj * n)) ** (1.0 - 1.0 / theta) * np.power(mu, 1.0 / theta)
            g = np.where(dens > 0.0, h / np.where(dens > 0.0, dens, 1.0), 0.0)
            lhs, rhs = _cube_oracle(g, dens, theta, r, s)
            rhs_r.append(rhs**r)
            if rhs > 0.0:
                ratio = max(ratio, lhs / rhs)
    return math.fsum(rhs_r), ratio


def _verify_rows(seed: int, out: dict) -> None:
    from dyadlab.suite import run_suite

    for row in run_suite(depth=8, depth_2d=5, seed=seed):
        key = f"verify/{row.name}"
        out[f"{key}/lhs"] = float(row.lhs)
        out[f"{key}/bound"] = float(row.bound)
        out[f"{key}/pass"] = str(bool(row.passed))
        out[f"{key}/witness"] = row.witness


def _former_points(seed: int):
    """The sandwich cubes and surrogate values by the scalar loops that the
    suite ran before its batched geometry, for a checkout without it."""
    from dyadlab import (
        BoxCube,
        KernelHandle,
        ScopeError,
        onethird_grids,
        sandwich,
        substream,
        surrogate_kernel,
    )

    grids, rng, cubes = onethird_grids(1, 0, 16), substream(seed, 222), []
    for _ in range(3000):
        side = float(2.0 ** -rng.uniform(4.5, 12.0))
        lo = float(rng.uniform(0.0, 1.0 - 3.0 * side))
        u, cube = sandwich(BoxCube((lo,), side), 0, grids)
        cubes.append((u, cube.level, cube.index))
    kern = KernelHandle.product_frac(0.5, 0.5, 1, 1)
    grids, rng, values = onethird_grids(1, -4, 8), substream(seed, 555), []
    while len(values) < 400:
        x, y, u, v = rng.uniform(0.0, 1.0, size=4)
        try:
            values.append(surrogate_kernel(kern, (x,), (y,), (u,), (v,), grids, grids))
        except ScopeError:
            continue
    return cubes, values


def _verify_points(seed: int, out: dict) -> None:
    from dyadlab import suite

    if hasattr(suite, "_sandwich_cubes"):
        _, u, level, index = suite._sandwich_cubes(seed)
        cubes = zip(u.tolist(), level.tolist(), map(tuple, index.tolist()))
        values = suite._surrogate_window(seed)[1].tolist()
    else:
        cubes, values = _former_points(seed)
    out["verify-points/sandwich-cubes"] = [f"u={a} level={b} index={c}" for a, b, c in cubes]
    out["verify-points/surrogate-values"] = [float(v) for v in values]


def _scan2d(seed: int, unit: int, out: dict) -> None:
    import workloads as wl
    from dyadlab import characteristic, doubling_report, gen_weight, make_lattice

    spec_s, spec_o = wl.pair_specs("scan2d", seed, unit)
    lat = make_lattice(2, wl.SCAN_DEPTH)
    sigma, omega = gen_weight(lat, spec_s), gen_weight(lat, spec_o)
    key = f"scan2d/u{unit}"
    for kind in ("product_bump", "half_bump_omega", "no_bump"):
        res = characteristic(kind, None, sigma, omega, wl.EXPS, family="dyadic")
        out[f"{key}/{kind}/value"] = res.value
        out[f"{key}/{kind}/value/oracle"] = _char_oracle(kind, res.witness, sigma, omega, wl.EXPS)
        out[f"{key}/{kind}/witness"] = wl.describe(res.witness)
    lat6 = make_lattice(2, wl.ONETHIRD_DEPTH)
    pair6 = gen_weight(lat6, spec_s), gen_weight(lat6, spec_o)
    res = characteristic("no_bump", None, *pair6, wl.EXPS, family="onethird")
    out[f"{key}/no_bump_onethird/value"] = res.value
    out[f"{key}/no_bump_onethird/value/oracle"] = _char_oracle("no_bump", res.witness, *pair6, wl.EXPS)
    out[f"{key}/no_bump_onethird/witness"] = wl.describe(res.witness)
    cells = omega.density * lat.cell_volume
    rep = doubling_report(omega, "cube")
    out[f"{key}/doubling_cube/value"] = rep.constant
    out[f"{key}/doubling_cube/value/oracle"] = _ratio_oracle(cells, rep.witnesses["doubling"])
    out[f"{key}/doubling_cube/witness"] = wl.describe(rep.witnesses["doubling"])
    rep = doubling_report(omega, "product_reverse")
    out[f"{key}/doubling_product_reverse/rev_eps"] = list(rep.rev_eps)
    out[f"{key}/doubling_product_reverse/rev_eps_cube"] = rep.rev_eps_cube
    for name, wit in sorted(rep.witnesses.items()):
        out[f"{key}/doubling_product_reverse/{name}/witness"] = wl.describe(wit)
        out[f"{key}/doubling_product_reverse/{name}/value"] = wit.value
        out[f"{key}/doubling_product_reverse/{name}/value/oracle"] = _ratio_oracle(cells, wit)
    w5 = gen_weight(make_lattice(2, PER_SCALE_DEPTH), spec_o)
    _reverse_fields(f"{key}/doubling_product_reverse_depth{PER_SCALE_DEPTH}", w5, out)
    _doubling_fields(f"{key}/doubling_cube_sigma", sigma, doubling_report(sigma, "cube"), out)
    lat4 = make_lattice(2, DOUBLING_DEPTH)
    for which, spec in (("sigma", spec_s), ("omega", spec_o)):
        w = gen_weight(lat4, spec)
        for mode in ("rectangle", "strong"):
            _doubling_fields(f"{key}/doubling_{mode}_{which}", w, doubling_report(w, mode), out)


def _doubling_fields(name: str, w, rep, out: dict) -> None:
    """A cube, rectangle or strong report of w; its constant or strong
    beta, where there is one, with the witness's ratio of math.fsum masses
    as its oracle."""
    import workloads as wl

    for field, value in (("constant", rep.constant), ("strong_beta", rep.strong_beta)):
        out[f"{name}/{field}"] = repr(value) if value is None else value
        if value is not None and rep.witnesses:
            (wit,) = rep.witnesses.values()
            out[f"{name}/{field}/oracle"] = _ratio_oracle(w.density * w.lattice.cell_volume, wit)
    out[f"{name}/flags"] = f"infinite={rep.infinite} absent={rep.strong_absent}"
    for wname, wit in sorted(rep.witnesses.items()):
        out[f"{name}/{wname}/witness"] = wl.describe(wit)


def _reverse_fields(name: str, w, out: dict) -> None:
    """The product-reverse report of w: its exponents and pass flag, each
    per_scale ratio with the brute-force greatest ratio of its scale as its
    oracle, and each witness with its ratio of math.fsum masses as the
    oracle of its value."""
    import workloads as wl
    from dyadlab import doubling_report

    rep = doubling_report(w, "product_reverse")
    out[f"{name}/rev_eps"] = list(rep.rev_eps)
    out[f"{name}/rev_eps_cube"] = rep.rev_eps_cube
    out[f"{name}/flags"] = f"passes_reverse={rep.passes_reverse}"
    oracle = _per_scale_oracle(w)
    for scale, ratio in sorted(rep.per_scale.items()):
        key = f"{name}/per_scale/{'_'.join(map(str, scale))}"
        out[key] = ratio
        out[f"{key}/oracle"] = oracle.get(scale, 0.0)
    for wname, wit in sorted(rep.witnesses.items()):
        out[f"{name}/{wname}/witness"] = wl.describe(wit)
        out[f"{name}/{wname}/value"] = wit.value
        out[f"{name}/{wname}/value/oracle"] = _ratio_oracle(w.density * w.lattice.cell_volume, wit)


def _zero_block(seed: int, out: dict) -> None:
    """Cube, rectangle, strong and product-reverse reports on a lognormal
    weight with a square block of zero cells, whose massless placements
    the cube, rectangle and strong scans decide through the pair prefix
    engine, not by their float64 screen, and whose zero tiles the
    product-reverse scan skips."""
    from dyadlab import Weight, doubling_report, make_lattice, substream

    lat = make_lattice(2, DOUBLING_DEPTH)
    rng = substream(seed, 909)
    dens = rng.lognormal(0.0, 0.6, lat.shape)
    side = int(rng.integers(2, 6))
    a, b = (int(v) for v in rng.integers(0, lat.cells_per_axis - side + 1, size=2))
    dens[a : a + side, b : b + side] = 0.0
    w = Weight(lat, dens)
    for mode in ("cube", "rectangle", "strong"):
        _doubling_fields(f"zero-block/doubling_{mode}", w, doubling_report(w, mode), out)
    _reverse_fields("zero-block/doubling_product_reverse", w, out)


def _ties(out: dict) -> None:
    """Cube, rectangle, strong and product-reverse reports of three weights
    on which many placements tie the best ratio exactly, so that the scans
    read many boxes of a size past their float64 screen and the
    product-reverse scan keeps the first of many tied tiles and scales."""
    from dyadlab import doubling_report, gen_weight, make_lattice

    lat = make_lattice(2, DOUBLING_DEPTH)
    for kind in ("constant", "halfspace_cutoff", "checkerboard"):
        w = gen_weight(lat, {"kind": kind})
        for mode in ("cube", "rectangle", "strong"):
            _doubling_fields(f"ties/{kind}/doubling_{mode}", w, doubling_report(w, mode), out)
        _reverse_fields(f"ties/{kind}/doubling_product_reverse", w, out)


def _blocks(seed: int, out: dict) -> None:
    """Cube and rectangle reports of seeded lognormal weights on a long 1D
    lattice and a 3D one, where most sizes span several placements per
    block, so the block pass skips them before their per-box screen, and
    the rectangle report of the first scan2d omega at 2D depth BAND_DEPTH,
    whose size tuples also form bands along the last axis."""
    import workloads as wl
    from dyadlab import doubling_report, gen_weight, make_lattice

    for dim, depth in BLOCK_SHAPES:
        w = gen_weight(make_lattice(dim, depth), {"kind": "random_lognormal", "seed": seed, "roughness": 1.0})
        for mode in ("cube", "rectangle"):
            _doubling_fields(f"blocks/{dim}d_depth{depth}/doubling_{mode}", w, doubling_report(w, mode), out)
    w = gen_weight(make_lattice(2, BAND_DEPTH), wl.pair_specs("scan2d", seed, 0)[1])
    _doubling_fields(f"blocks/2d_depth{BAND_DEPTH}/doubling_rectangle_scan2d_omega", w, doubling_report(w, "rectangle"), out)


def _single_boxes(seed: int, out: dict) -> None:
    """integrate, power_integrate, bump_cube, bump_rect and box_mass on
    seeded whole-cell boxes, and box_mass on seeded boxes with edges on
    thirds of a cell, of a 2D beta = 0.9 cascade, and characteristic_at
    on a shifted-grid rectangle and on one finer than the lattice, for
    that cascade and a lognormal weight; each value with its oracle from
    exact masses."""
    import numpy as np

    import workloads as wl
    from dyadlab import (
        Cube,
        DyadicRect,
        Rect,
        bump_cube,
        bump_rect,
        characteristic_at,
        gen_weight,
        integrate,
        make_lattice,
        onethird_grids,
        power_integrate,
        sample_grid,
        substream,
    )
    from dyadlab.lattice import box_mass

    lat = make_lattice(2, SINGLE_DEPTH)
    n, theta = lat.cells_per_axis, wl.EXPS.theta
    w = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": seed})
    cells = {t: np.power(w.density, t) * lat.cell_volume for t in (1.0, theta)}
    rng = substream(seed, 929)
    for k in range(SINGLE_BOXES):
        lo = [int(v) for v in rng.integers(0, n, size=2)]
        hi = [int(rng.integers(a + 1, n + 1)) for a in lo]
        rect = Rect(tuple(lo), tuple(hi))
        mass = {t: _exact_mass(c, [(3 * a, 3 * b) for a, b in zip(lo, hi)]) for t, c in cells.items()}
        bump = _bump_oracle(mass[theta], rect.cells * lat.cell_volume, theta)
        rows = {
            "integrate": (integrate(w, rect), mass[1.0]),
            "power_integrate": (power_integrate(w, rect, theta), mass[theta]),
            "bump_cube": (bump_cube(rect, w, theta), bump),
            "bump_rect": (bump_rect(Rect(rect.lo[:1], rect.hi[:1]), Rect(rect.lo[1:], rect.hi[1:]), w, theta), bump),
            "box_mass": (box_mass(w, [a / n for a in lo], [b / n for b in hi]), mass[1.0]),
        }
        # edges on thirds of a cell, the oracle taken at their float values
        lo, hi = zip(*([a / 3 for a in sorted(rng.integers(0, 3 * n + 1, size=2).tolist())] for _ in range(2)))
        for t, c in cells.items():
            got = box_mass(w, [a / n for a in lo], [b / n for b in hi], t)
            rows[f"box_mass_thirds_theta{t:g}"] = (got, _share_mass(c, lo, hi))
        for name, (got, oracle) in rows.items():
            out[f"single-box/{name}/{k}"] = got
            out[f"single-box/{name}/{k}/oracle"] = oracle
    omega = gen_weight(lat, {"kind": "random_lognormal", "seed": seed, "roughness": 0.8})
    third = onethird_grids(1, 0, SINGLE_DEPTH + 2)
    rects = {
        "shifted": DyadicRect(
            Cube(sample_grid(seed, 1, 0, SINGLE_DEPTH + 2), 2, (1,)),
            Cube(sample_grid(seed + 1, 1, 0, SINGLE_DEPTH + 2), 3, (2,)),
        ),
        "finer": DyadicRect(Cube(third[1], SINGLE_DEPTH + 2, (40,)), Cube(third[2], SINGLE_DEPTH + 1, (33,))),
    }
    for name, box in rects.items():
        for kind in ("product_bump", "no_bump"):
            key = f"single-box/characteristic_at/{name}/{kind}"
            out[key] = characteristic_at(kind, None, box, w, omega, wl.EXPS)
            out[f"{key}/oracle"] = _char_oracle(kind, box, w, omega, wl.EXPS)


def _third_boxes(seed: int, out: dict) -> None:
    """characteristic_at on fixed one-third rectangles that no scan needs
    to pick, read through the refined walk, each with its oracle from
    exact thirds: at 2D depth SINGLE_DEPTH a level-0 box, boxes clipped
    at the left and at the right edge, an interior box and a finest-level
    box, of the single-box reads' weights, and at 3D depth THREE_D_DEPTH
    a box with a first factor of m = 2 axes, of the first norm2d pair."""
    import workloads as wl
    from dyadlab import Cube, DyadicRect, Exponents, characteristic_at, gen_weight, make_lattice, onethird_grids

    lat = make_lattice(2, SINGLE_DEPTH)
    w = gen_weight(lat, {"kind": "cascade", "beta": 0.9, "seed": seed})
    omega = gen_weight(lat, {"kind": "random_lognormal", "seed": seed, "roughness": 0.8})
    third = onethird_grids(1, 0, SINGLE_DEPTH)
    top = (1 << SINGLE_DEPTH) - 1
    rects = {
        "level0": DyadicRect(Cube(third[1], 0, (0,)), Cube(third[2], 0, (-1,))),
        "left": DyadicRect(Cube(third[1], 2, (-1,)), Cube(third[0], 3, (2,))),
        "right": DyadicRect(Cube(third[2], 3, (7,)), Cube(third[1], 1, (1,))),
        "interior": DyadicRect(Cube(third[1], 3, (3,)), Cube(third[2], 2, (1,))),
        "finest": DyadicRect(Cube(third[1], SINGLE_DEPTH, (17,)), Cube(third[2], SINGLE_DEPTH, (top,))),
    }
    runs = [(name, box, w, omega, wl.EXPS) for name, box in rects.items()]
    lat = make_lattice(3, THREE_D_DEPTH)
    sigma, omega = (gen_weight(lat, spec) for spec in wl.pair_specs("norm2d", seed, 0))
    exps = Exponents(p=2.0, q=4.0, alpha=1.0, beta=0.5, m=2, n=1, theta=1.5)
    box = DyadicRect(
        Cube(onethird_grids(2, 0, THREE_D_DEPTH)[5], 1, (-1, 1)), Cube(onethird_grids(1, 0, THREE_D_DEPTH)[2], 2, (3,))
    )
    runs.append(("3d_m2", box, sigma, omega, exps))
    for name, box, s, o, e in runs:
        for kind in ("product_bump", "no_bump"):
            key = f"third-box/characteristic_at/{name}/{kind}"
            out[key] = characteristic_at(kind, None, box, s, o, e)
            out[f"{key}/oracle"] = _char_oracle(kind, box, s, o, e)


def _scaled_rows(seed: int, out: dict) -> None:
    """The one-third no_bump scan, with its oracle, of a pair whose sigma,
    a seeded lognormal weight scaled to near the float64 maximum, the
    refined pyramid sums at 2^-7 of its size, beside an omega it sums at
    scale 1.  Both weights are 50 times heavier on the middle half of each
    axis, across the standard grids' level-1 edge, so that the witness
    lies off the standard grid pair at most seeds (0 and 2 of 0..2)."""
    import workloads as wl
    from dyadlab import Weight, characteristic, gen_weight, make_lattice

    lat = make_lattice(2, SCALED_DEPTH)
    middle = (slice(lat.cells_per_axis // 4, 3 * lat.cells_per_axis // 4),) * 2
    sigma, omega = (
        gen_weight(lat, {"kind": "random_lognormal", "seed": seed + k, "roughness": 1.0}).density.copy()
        for k in (0, 1)
    )
    for dens in (sigma, omega):
        dens[middle] *= 50.0
    sigma, omega = Weight(lat, sigma / sigma.max() * 1.7e308), Weight(lat, omega)
    res = characteristic("no_bump", None, sigma, omega, wl.EXPS, family="onethird")
    key = f"scaled-rows/depth{SCALED_DEPTH}/no_bump_onethird"
    out[f"{key}/value"] = res.value
    out[f"{key}/value/oracle"] = _char_oracle("no_bump", res.witness, sigma, omega, wl.EXPS)
    out[f"{key}/witness"] = wl.describe(res.witness)


def _norm2d(seed: int, unit: int, out: dict) -> None:
    import workloads as wl
    from dyadlab import (
        KernelHandle,
        characteristic,
        embed_check_rects,
        gen_weight,
        make_lattice,
        norm_estimate,
    )

    spec_s, spec_o = wl.pair_specs("norm2d", seed, unit)
    lat = make_lattice(2, wl.NORM_DEPTH)
    sigma, omega = gen_weight(lat, spec_s), gen_weight(lat, spec_o)
    key = f"norm2d/u{unit}"
    est = norm_estimate(KernelHandle.from_exponents(wl.EXPS), sigma, omega, wl.EXPS)
    out[f"{key}/norm_estimate/lower_bound"] = est.lower_bound
    out[f"{key}/norm_estimate/indicator_floor"] = est.indicator_floor
    out[f"{key}/norm_estimate/trace"] = [obj for _, _, obj in est.trace]
    for kind in ("no_bump", "product_bump"):
        res = characteristic(kind, None, sigma, omega, wl.EXPS, family="dyadic")
        out[f"{key}/{kind}/value"] = res.value
        out[f"{key}/{kind}/value/oracle"] = _char_oracle(kind, res.witness, sigma, omega, wl.EXPS)
        out[f"{key}/{kind}/witness"] = wl.describe(res.witness)
    runs = {
        "embed_sigma": (est.best_f, sigma, wl.R_MID, wl.EXPS.p),
        "embed_omega": (est.best_g, omega, wl.R_CONJ, wl.EXPS.q_prime),
    }
    for name, (f, w, r, s) in runs.items():
        rep = embed_check_rects(f, w, wl.EXPS.theta, r, s, m=1)
        for field in ("lhs", "rhs_norm", "ratio", "intermediate", "minkowski_mid",
                      "max_slice_ratio", "max_point_ratio"):
            out[f"{key}/{name}/{field}"] = getattr(rep, field)
        out[f"{key}/{name}/lhs/oracle"] = _embed_oracle(f, w, wl.EXPS.theta, r, s, 1)
        intermediate, max_slice = _slice_oracle(f, w, wl.EXPS.theta, r, s, 1)
        out[f"{key}/{name}/intermediate/oracle"] = intermediate
        out[f"{key}/{name}/max_slice_ratio/oracle"] = max_slice


def _norm_forms(seed: int, out: dict) -> None:
    """norm_estimate on the first norm2d pair with a level-table kernel,
    with an explicit family that holds a duplicated rectangle, with a
    table holding only that family's level pairs over it, and with the
    level table over the explicit dyadic family."""
    import hashlib

    import workloads as wl
    from dyadlab import (
        Cube,
        DyadicRect,
        KernelHandle,
        dyadic_family,
        family_of,
        gen_weight,
        make_lattice,
        norm_estimate,
        standard_grid,
        substream,
    )

    spec_s, spec_o = wl.pair_specs("norm2d", seed, 0)
    lat = make_lattice(2, wl.NORM_DEPTH)
    sigma, omega = gen_weight(lat, spec_s), gen_weight(lat, spec_o)
    kernel = KernelHandle.from_exponents(wl.EXPS)
    levels = range(lat.depth + 1)
    table = KernelHandle.from_table(
        {(li, lj): kernel.level_value(li, lj) * (1.0 + 0.5 * ((li + 2 * lj) % 3))
         for li in levels for lj in levels},
        1,
        1,
    )
    rng, grid, rects = substream(seed, 919), standard_grid(1, 0, lat.depth), []
    for _ in range(12):
        li, lj = (int(v) for v in rng.integers(0, lat.depth + 1, size=2))
        i, j = int(rng.integers(0, 1 << li)), int(rng.integers(0, 1 << lj))
        rects.append(DyadicRect(Cube(grid, li, (i,)), Cube(grid, lj, (j,))))
    family = family_of(lat, rects + rects[:1])
    held = {(r.i_cube.level, r.j_cube.level) for r in rects}
    held_table = KernelHandle.from_table({lv: table.level_value(*lv) for lv in held}, 1, 1)
    cases = (
        ("table-kernel", table, None),
        ("family", kernel, family),
        ("held-table-family", held_table, family),
        ("table-dyadic-family", table, dyadic_family(lat, 1)),
    )
    for name, kern, fam in cases:
        est = norm_estimate(kern, sigma, omega, wl.EXPS, family=fam, seed=seed)
        key = f"norm-forms/{name}"
        out[f"{key}/lower_bound"] = est.lower_bound
        out[f"{key}/indicator_floor"] = est.indicator_floor
        out[f"{key}/trace"] = [obj for _, _, obj in est.trace]
        out[f"{key}/trace_steps"] = " ".join(f"{t}:{s}" for t, s, _ in est.trace)
        for side, gf in (("best_f", est.best_f), ("best_g", est.best_g)):
            out[f"{key}/{side}"] = hashlib.sha256(gf.values.tobytes()).hexdigest()


def _three_d(seed: int, out: dict) -> None:
    """norm_estimate and both embed_check_rects of the norm2d task on the
    first norm2d pair's specs at 3D depth THREE_D_DEPTH, with a first
    factor of m = 1 and m = 2 axes, each embedding's lhs, intermediate
    and max_slice_ratio with their oracles."""
    import workloads as wl
    from dyadlab import Exponents, KernelHandle, embed_check_rects, gen_weight, make_lattice, norm_estimate

    spec_s, spec_o = wl.pair_specs("norm2d", seed, 0)
    lat = make_lattice(3, THREE_D_DEPTH)
    sigma, omega = gen_weight(lat, spec_s), gen_weight(lat, spec_o)
    for m in (1, 2):
        exps = Exponents(p=2.0, q=4.0, alpha=0.5 * m, beta=0.5 * (3 - m), m=m, n=3 - m, theta=1.5)
        est = norm_estimate(KernelHandle.from_exponents(exps), sigma, omega, exps, seed=seed)
        key = f"3d/m{m}"
        out[f"{key}/norm_estimate/lower_bound"] = est.lower_bound
        out[f"{key}/norm_estimate/indicator_floor"] = est.indicator_floor
        out[f"{key}/norm_estimate/trace"] = [obj for _, _, obj in est.trace]
        r_mid = math.sqrt(exps.p * exps.q)
        runs = {
            "embed_sigma": (est.best_f, sigma, r_mid, exps.p),
            "embed_omega": (est.best_g, omega, r_mid / (r_mid - 1.0), exps.q_prime),
        }
        for name, (f, w, r, s) in runs.items():
            rep = embed_check_rects(f, w, exps.theta, r, s, m=m)
            for field in ("lhs", "rhs_norm", "ratio", "intermediate", "minkowski_mid",
                          "max_slice_ratio", "max_point_ratio"):
                out[f"{key}/{name}/{field}"] = getattr(rep, field)
            out[f"{key}/{name}/lhs/oracle"] = _embed_oracle(f, w, exps.theta, r, s, m)
            intermediate, max_slice = _slice_oracle(f, w, exps.theta, r, s, m)
            out[f"{key}/{name}/intermediate/oracle"] = intermediate
            out[f"{key}/{name}/max_slice_ratio/oracle"] = max_slice


def dump(seed: int, units: int) -> dict:
    out: dict = {}
    _verify_rows(seed, out)
    _verify_points(seed, out)
    for unit in range(units):
        _scan2d(seed, unit, out)
        _norm2d(seed, unit, out)
    _zero_block(seed, out)
    _ties(out)
    _blocks(seed, out)
    _single_boxes(seed, out)
    _third_boxes(seed, out)
    _scaled_rows(seed, out)
    _norm_forms(seed, out)
    _three_d(seed, out)
    return out


def _flat(values: dict):
    """(name, value) pairs with list entries as name[i]."""
    for name, val in values.items():
        if isinstance(val, list):
            for i, v in enumerate(val):
                yield f"{name}[{i}]", v
        else:
            yield name, val


def _quantity(name: str) -> str:
    """The name with its unit and list index wildcarded."""
    return re.sub(r"\[\d+\]", "[*]", re.sub(r"/u\d+/", "/*/", name))


def _rel(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return math.inf if scale == 0.0 or not math.isfinite(scale) else abs(a - b) / scale


def compare(old: dict, new: dict) -> tuple[str, bool]:
    """The drift report, and whether anything differs."""
    a, b = dict(_flat(old)), dict(_flat(new))
    lines = []
    worst: dict[str, list] = {}  # quantity -> [rel, abs, where, moved, seen]
    texts = []
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            texts.append(f"  {name}: only in {'new' if name in b else 'old'}")
            continue
        x, y = a[name], b[name]
        if isinstance(x, float) and isinstance(y, float):
            entry = worst.setdefault(_quantity(name), [0.0, 0.0, "", 0, 0])
            entry[4] += 1
            if struct.pack("<d", x) != struct.pack("<d", y):
                entry[3] += 1
                entry[1] = max(entry[1], abs(x - y))
                if _rel(x, y) >= entry[0]:
                    entry[0], entry[2] = _rel(x, y), f"{name}: {x!r} -> {y!r}"
        elif x != y:
            texts.append(f"  {name}: {x!r} -> {y!r}")
    moved = {q: e for q, e in worst.items() if e[3]}
    lines.append(
        f"numbers that moved, worst relative and absolute drift per quantity "
        f"({len(worst) - len(moved)} of {len(worst)} quantities kept every bit):"
    )
    for q, (rel, absd, where, n_moved, seen) in sorted(moved.items()):
        lines.append(f"  {q}: rel {rel:.3g}, abs {absd:.3g} ({n_moved}/{seen} moved) at {where}")
    overall = max((e[0] for e in worst.values()), default=0.0)
    lines.append(f"overall worst relative drift: {overall:.3g}")
    lines.extend(_oracle_lines(a, b))
    lines.append(f"changed witnesses and text fields: {len(texts)}")
    lines.extend(texts)
    return "\n".join(lines), bool(moved or texts)


def _oracle_lines(a: dict, b: dict) -> list[str]:
    """Per moved value with an oracle in both dumps, its relative distance
    to the oracle before and after."""
    rows, toward = [], 0
    for name in sorted(a.keys() & b.keys()):
        oracle = f"{name}/oracle"
        if oracle not in a or oracle not in b or struct.pack("<d", a[name]) == struct.pack("<d", b[name]):
            continue
        before, after = _rel(a[name], a[oracle]), _rel(b[name], b[oracle])
        toward += after <= before
        way = "toward" if after < before else "level" if after == before else "AWAY"
        rows.append(f"  {name}: {before:.3g} -> {after:.3g} ({way})")
    head = f"moved values with an oracle, relative distance before -> after ({toward}/{len(rows)} not away):"
    return [head] + rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--units", type=int, default=2, help="weight pairs per bench workload")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="dyadlab source to dump")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    ns = ap.parse_args(argv)
    if ns.compare:
        old, new = (json.loads(p.read_text())["values"] for p in ns.compare)
        report, differs = compare(old, new)
        print(report)
        return 1 if differs else 0
    if ns.out is None:
        ap.error("--out is needed unless --compare is given")
    sys.path[:0] = [str(ns.src.resolve()), str(ROOT / "bench")]
    values = dump(ns.seed, ns.units)
    ns.out.write_text(json.dumps({"seed": ns.seed, "units": ns.units, "values": values}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
