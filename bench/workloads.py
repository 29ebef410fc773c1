"""The three workloads as seeded lists of tasks.

A task is one public dyadlab call plus the check of its result.  Tasks come
in units: the six scans of one weight pair (scan2d), the four steps of one
norm-estimate pipeline (norm2d), or one `dyadlab verify` run (verify).  A
unit's tasks share state, so a pair's weights are created by its first task
and reused by the rest.  Every input is a pure function of the workload
seed and the unit index.

Each task returns the text that enters the result digest: the values,
witnesses and suite rows it computed, printed with all their digits.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from dyadlab import (
    Cube,
    DyadicRect,
    Exponents,
    KernelHandle,
    characteristic,
    characteristic_at,
    doubling_report,
    embed_check_rects,
    gen_weight,
    make_lattice,
    norm_estimate,
)
from dyadlab.cli import main as cli_main
from dyadlab.lattice import Witness

WORKLOADS = ("scan2d", "norm2d", "verify")

EXPS = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=1.5)
R_MID = math.sqrt(EXPS.p * EXPS.q)
R_CONJ = R_MID / (R_MID - 1.0)
SCAN_DEPTH = 8
ONETHIRD_DEPTH = 6
NORM_DEPTH = 6
VERIFY_ROWS = 26

# one random stream per workload, so the seeds of different workloads never
# produce the same pairs
_STREAM = {"scan2d": 1, "norm2d": 2}


class CheckFailed(Exception):
    """A task's result did not pass its check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Task:
    name: str
    inputs: str
    run: Callable[[], str]


def make_api(tracer=None) -> SimpleNamespace:
    """The public calls the tasks make, wrapped in spans when traced."""
    fns = {
        "gen_weight": gen_weight,
        "characteristic": characteristic,
        "characteristic_at": characteristic_at,
        "doubling_report": doubling_report,
        "reevaluate": Witness.reevaluate,
        "norm_estimate": norm_estimate,
        "embed_check_rects": embed_check_rects,
        "cli_main": cli_main,
    }
    if tracer is not None:
        fns = {key: tracer.traced(fn) for key, fn in fns.items()}
    return SimpleNamespace(**fns)


def pair_specs(workload: str, seed: int, unit: int) -> tuple[dict, dict]:
    """sigma: cascade with beta in [0.6, 0.8]; omega: lognormal with
    roughness in [0.3, 0.6]."""
    rng = np.random.default_rng([seed, _STREAM[workload], unit])
    sigma = {
        "kind": "cascade",
        "beta": float(rng.uniform(0.6, 0.8)),
        "seed": int(rng.integers(1 << 31)),
    }
    omega = {
        "kind": "random_lognormal",
        "roughness": float(rng.uniform(0.3, 0.6)),
        "seed": int(rng.integers(1 << 31)),
    }
    return sigma, omega


def unit_tasks(workload: str, seed: int, unit: int, api, tmp_dir: Path) -> list[Task]:
    if workload == "scan2d":
        return _scan2d(seed, unit, api)
    if workload == "norm2d":
        return _norm2d(seed, unit, api)
    if workload == "verify":
        return _verify(seed, unit, api, tmp_dir)
    raise ValueError(f"unknown workload {workload!r}")


def describe(x) -> str:
    """A witness or value as digest text."""
    if isinstance(x, DyadicRect):
        return f"{describe(x.i_cube)}x{describe(x.j_cube)}"
    if isinstance(x, Cube):
        return f"{x.grid.descriptor()}@{x.level}:{x.index}"
    if isinstance(x, Witness):
        return f"{x.kind}:{x.rect.lo}-{x.rect.hi}/{x.other.lo}-{x.other.hi}={x.value!r}"
    return repr(x)


def _make_pair(api, spec_s, spec_o, depth, thetas):
    lat = make_lattice(2, depth)
    sigma = api.gen_weight(lat, spec_s)
    omega = api.gen_weight(lat, spec_o)
    for theta in thetas:
        sigma.prefix(theta)
        omega.prefix(theta)
    return sigma, omega


def _checked_scan(api, kind, sigma, omega, family):
    res = api.characteristic(kind, None, sigma, omega, EXPS, family=family)
    again = api.characteristic_at(kind, None, res.witness, sigma, omega, EXPS)
    require(again == res.value, f"{kind} witness re-evaluates to {again!r}, scan said {res.value!r}")
    require(math.isfinite(res.value) and res.value > 0, f"{kind} value {res.value!r}")
    return res


# ---------------------------------------------------------------------------
# scan2d


def _scan2d(seed: int, unit: int, api) -> list[Task]:
    spec_s, spec_o = pair_specs("scan2d", seed, unit)
    inputs = json.dumps([spec_s, spec_o], sort_keys=True)
    st: dict = {}

    def scan(kind):
        def run():
            if not st:
                st["pair"] = _make_pair(api, spec_s, spec_o, SCAN_DEPTH, (1.0, EXPS.theta))
            res = _checked_scan(api, kind, *st["pair"], "dyadic")
            return f"{res.value!r} {describe(res.witness)}"

        return run

    def onethird():
        pair = _make_pair(api, spec_s, spec_o, ONETHIRD_DEPTH, (1.0,))
        res = _checked_scan(api, "no_bump", *pair, "onethird")
        return f"{res.value!r} {describe(res.witness)}"

    def doubling_cube():
        omega = st["pair"][1]
        rep = api.doubling_report(omega, "cube")
        require(not rep.infinite, "cube doubling constant is infinite")
        wit = rep.witnesses["doubling"]
        again = api.reevaluate(wit, omega)
        require(again == rep.constant, f"doubling witness gives {again!r}, scan said {rep.constant!r}")
        return f"{rep.constant!r} {describe(wit)}"

    def doubling_reverse():
        omega = st["pair"][1]
        rep = api.doubling_report(omega, "product_reverse")
        require(len(rep.rev_eps) == 2, f"rev_eps {rep.rev_eps!r}")
        require(all(math.isfinite(e) and e >= 0 for e in rep.rev_eps), f"rev_eps {rep.rev_eps!r}")
        for key, wit in sorted(rep.witnesses.items()):
            again = api.reevaluate(wit, omega)
            require(again == wit.value, f"{key} witness gives {again!r}, scan said {wit.value!r}")
        wits = " ".join(describe(w) for _, w in sorted(rep.witnesses.items()))
        return f"{rep.rev_eps!r} {rep.rev_eps_cube!r} {wits}"

    return [
        Task("product_bump", inputs, scan("product_bump")),
        Task("half_bump_omega", inputs, scan("half_bump_omega")),
        Task("no_bump", inputs, scan("no_bump")),
        Task("no_bump_onethird", inputs, onethird),
        Task("doubling_cube", inputs, doubling_cube),
        Task("doubling_product_reverse", inputs, doubling_reverse),
    ]


# ---------------------------------------------------------------------------
# norm2d


def _norm2d(seed: int, unit: int, api) -> list[Task]:
    spec_s, spec_o = pair_specs("norm2d", seed, unit)
    inputs = json.dumps([spec_s, spec_o], sort_keys=True)
    st: dict = {}

    def estimate():
        st["pair"] = sigma, omega = _make_pair(
            api, spec_s, spec_o, NORM_DEPTH, (1.0, EXPS.theta)
        )
        est = api.norm_estimate(KernelHandle.from_exponents(EXPS), sigma, omega, EXPS)
        require(math.isfinite(est.lower_bound), f"lower bound {est.lower_bound!r}")
        require(est.lower_bound >= est.indicator_floor, "bound below its indicator floor")
        st["est"] = est
        return f"{est.lower_bound!r} {[obj for _, _, obj in est.trace]!r}"

    def scans():
        floor = _checked_scan(api, "no_bump", *st["pair"], "dyadic")
        bump = _checked_scan(api, "product_bump", *st["pair"], "dyadic")
        st["floor"], st["bump"] = floor.value, bump.value
        return f"{floor.value!r} {describe(floor.witness)} {bump.value!r} {describe(bump.witness)}"

    def embed(which):
        def run():
            est, (sigma, omega) = st["est"], st["pair"]
            if which == "sigma":
                rep = api.embed_check_rects(est.best_f, sigma, EXPS.theta, R_MID, EXPS.p, m=1)
            else:
                rep = api.embed_check_rects(
                    est.best_g, omega, EXPS.theta, R_CONJ, EXPS.q_prime, m=1
                )
            require(math.isfinite(rep.ratio) and rep.ratio > 0, f"embedding ratio {rep.ratio!r}")
            st[which] = rep.ratio
            if which == "omega":
                lower = est.lower_bound
                upper = st["sigma"] * st["omega"] * st["bump"]
                require(st["floor"] <= lower, f"floor {st['floor']!r} above bound {lower!r}")
                require(lower <= upper, f"bound {lower!r} above ratio product {upper!r}")
            return f"{rep.lhs!r} {rep.rhs_norm!r} {rep.ratio!r}"

        return run

    return [
        Task("norm_estimate", inputs, estimate),
        Task("characteristic", inputs, scans),
        Task("embed_sigma", inputs, embed("sigma")),
        Task("embed_omega", inputs, embed("omega")),
    ]


# ---------------------------------------------------------------------------
# verify


def _verify(seed: int, unit: int, api, tmp_dir: Path) -> list[Task]:
    run_seed = seed + unit
    out = tmp_dir / f"verify-{run_seed}.json"

    def run():
        try:
            code = api.cli_main(
                ["verify", "--format", "json", "--seed", str(run_seed), "--out", str(out)]
            )
            require(code == 0, f"verify exited with {code}")
            text = out.read_text()
        finally:
            out.unlink(missing_ok=True)
        rows = json.loads(text)
        require(len(rows) == VERIFY_ROWS, f"{len(rows)} rows, expected {VERIFY_ROWS}")
        failing = [r["check"] for r in rows if r["pass"] is not True]
        require(not failing, f"failing rows {failing}")
        return text

    return [Task("verify", json.dumps({"seed": run_seed}), run)]
