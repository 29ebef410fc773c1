"""Slow exact oracles, run once per benchmark run before timing starts.

On a depth-3 2D lattice the no_bump and product_bump dyadic
characteristics are recomputed from their definitions with per-cell
math.fsum sums; a sample of sandwich results is re-checked in Fraction
arithmetic.  A mismatch raises OracleMismatch and fails the run.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from dyadlab import BoxCube, characteristic, gen_weight, make_lattice, onethird_grids, sandwich

ORACLE_DEPTH = 3
RELATIVE = 1e-12
SANDWICHES = 300


class OracleMismatch(Exception):
    pass


def _bump(density: np.ndarray, cells, cell_vol: float, vol: float, theta: float) -> float:
    mass = math.fsum(float(density[c]) ** theta * cell_vol for c in cells)
    return vol ** (1.0 - 1.0 / theta) * mass ** (1.0 / theta)


def brute_characteristic(kind: str, sigma, omega, exps) -> float:
    """sup over dyadic I x J of K(I,J) * bump_sigma^(1/p') * bump_omega^(1/q),
    K = |I|^(alpha/m - 1) |J|^(beta/n - 1), on a 2D lattice."""
    theta = exps.theta if kind == "product_bump" else 1.0
    depth = sigma.lattice.depth
    n = 1 << depth
    cell_vol = 1.0 / (n * n)
    best = 0.0
    for li in range(depth + 1):
        for lj in range(depth + 1):
            wi, wj = n >> li, n >> lj
            vol_i, vol_j = 2.0**-li, 2.0**-lj
            vol = vol_i * vol_j
            kern = vol_i ** (exps.alpha / exps.m - 1.0) * vol_j ** (exps.beta / exps.n - 1.0)
            for a in range(1 << li):
                for b in range(1 << lj):
                    cells = [
                        (x, y)
                        for x in range(a * wi, (a + 1) * wi)
                        for y in range(b * wj, (b + 1) * wj)
                    ]
                    bs = _bump(sigma.density, cells, cell_vol, vol, theta)
                    bw = _bump(omega.density, cells, cell_vol, vol, theta)
                    best = max(best, kern * bs ** (1.0 / exps.p_prime) * bw ** (1.0 / exps.q))
    return best


def check_characteristics(spec_s: dict, spec_o: dict, exps) -> int:
    lat = make_lattice(2, ORACLE_DEPTH)
    sigma, omega = gen_weight(lat, spec_s), gen_weight(lat, spec_o)
    for kind in ("no_bump", "product_bump"):
        got = characteristic(kind, None, sigma, omega, exps, family="dyadic").value
        want = brute_characteristic(kind, sigma, omega, exps)
        if not abs(got - want) <= RELATIVE * abs(want):
            raise OracleMismatch(f"{kind}: scan {got!r}, brute force {want!r}")
    return 2


def check_sandwiches(seed: int) -> int:
    """3P inside I, side(I) <= 18 side(P), verified in exact rationals."""
    grids = onethird_grids(1, 0, 16)
    rng = np.random.default_rng([seed, 5])
    sides = 2.0 ** -rng.uniform(4.5, 14.0, size=SANDWICHES)
    los = rng.uniform(0.0, 1.0, size=SANDWICHES) * (1.0 - sides)
    for side, lo in zip(sides.tolist(), los.tolist()):
        _, cube = sandwich(BoxCube((lo,), side), 0, grids)
        (c_lo,), (c_hi,) = cube.bounds()
        s, x = Fraction(side), Fraction(lo)
        if not (c_lo <= x - s and x + 2 * s <= c_hi and c_hi - c_lo <= 18 * s):
            raise OracleMismatch(f"sandwich of [{lo!r}, +{side!r}] gave [{c_lo}, {c_hi}]")
    return SANDWICHES


def run_oracle(seed: int, spec_s: dict, spec_o: dict, exps) -> int:
    """Every oracle comparison; returns how many were made."""
    return check_characteristics(spec_s, spec_o, exps) + check_sandwiches(seed)
