"""The verify suite's batched checks against the per-item loops they replaced.

Each former loop is kept here verbatim as the oracle: the batches must draw
the same inputs from the same streams and return the same bits.
"""

import numpy as np

from dyadlab import (
    BoxCube,
    KernelHandle,
    ScopeError,
    bump_cube,
    gen_weight,
    integrate,
    make_lattice,
    onethird_grids,
    random_partition,
    sandwich,
    substream,
    surrogate_kernel,
)
from dyadlab import suite


def test_sandwich_inputs_and_cubes_match_the_former_loop():
    grids = onethird_grids(1, 0, 16)
    for seed in (0, 3):
        side, u, level, index = suite._sandwich_cubes(seed)
        rng = substream(seed, 222)
        for k in range(3000):
            s = float(2.0 ** -rng.uniform(4.5, 12.0))
            lo = float(rng.uniform(0.0, 1.0 - 3.0 * s))
            want, cube = sandwich(BoxCube((lo,), s), 0, grids)
            assert side[k] == s
            assert (want, cube.level, cube.index) == (u[k], level[k], tuple(index[k].tolist()))


def test_surrogate_window_matches_the_former_loop():
    kern = KernelHandle.product_frac(0.5, 0.5, 1, 1)
    grids = onethird_grids(1, -4, 8)
    for seed in (0, 2):
        quads, vals = suite._surrogate_window(seed)
        rng = substream(seed, 555)
        want_q, want_v = [], []
        while len(want_v) < 400:
            x, y, u, v = rng.uniform(0.0, 1.0, size=4)
            try:
                want_v.append(surrogate_kernel(kern, (x,), (y,), (u,), (v,), grids, grids))
            except ScopeError:
                continue
            want_q.append((x, y, u, v))
        assert np.array_equal(quads, np.array(want_q))
        assert [v.hex() for v in vals.tolist()] == [v.hex() for v in want_v]


def test_partition_bumps_match_bump_cube_per_part():
    for dim, depth in ((1, 8), (2, 5)):
        lat = make_lattice(dim, depth)
        w = gen_weight(lat, {"kind": "random_lognormal", "seed": 21, "roughness": 0.7})
        parts = random_partition(lat, 57)
        for theta in (1.0, 1.5, 2.0):
            got = suite._part_bumps(w, parts, theta)
            want = [bump_cube(r, w, theta) for r in parts]
            assert [g.hex() for g in got.tolist()] == [v.hex() for v in want]
        mass = suite._part_bumps(w, parts, 1.0)
        assert [m.hex() for m in mass.tolist()] == [integrate(w, r).hex() for r in parts]
