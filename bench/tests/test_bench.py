"""Tests of the benchmark itself: names, smoke runs, tracing, determinism.

    python -m pytest bench/tests -q

Each workload runs one unit of tasks (--seconds 0), plain and traced.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that must be nonzero on each workload's traced run
USED = {
    "scan2d": [
        "lattice.prefix_s", "lattice.prefix_builds", "lattice.prefix_bytes",
        "lattice.doubling_s", "lattice.doubling_calls", "lattice.doubling_boxes",
        "bump.scan_s", "bump.scan_calls", "bump.rects", "bump.rects_per_s", "bump.witness_s",
    ],
    "norm2d": [
        "lattice.prefix_s", "lattice.prefix_builds", "lattice.prefix_bytes",
        "bump.scan_s", "bump.scan_calls", "bump.rects", "bump.rects_per_s", "bump.witness_s",
        "forms.norm_s", "forms.norm_calls", "forms.halfsteps", "forms.halfstep_ms",
        "embed.rects_s", "embed.rects_calls",
    ],
    "verify": [name for name, _, _, _ in tracing.PER_LAYER if not name.endswith(".errors")],
}


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace, seed=7):
        key = (workload, trace, seed)
        if key not in cache:
            cache[key] = _parsed(_run(workload, seed, trace))
        return cache[key]

    return get


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in tracing.PER_LAYER
    ]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_and_prints_the_end_to_end_metrics(runs, workload):
    report, result = runs(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_rate"] == {"value": 0.0, "unit": "ratio"}
    assert report["task_p50_s"]["value"] > 0 and report["task_p50_s"]["unit"] == "s"
    assert report["wall"]["task_p50_s"] > 0 and report["wall"]["scale"] > 0
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert metrics["pass_rate"]["value"] == 1.0
    assert all(v["value"] > 0 for v in metrics.values())
    assert report["machine"]["threads"]["OMP_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_it_uses(runs, workload):
    report, result = runs(workload, 1)
    assert result["correct"] and report["digests_match_untraced"]
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    missing = [name for name in USED[workload] if not metrics[name]["value"] > 0]
    assert not missing
    for layer, busy in report["layer_busy_s"].items():
        assert busy <= report["traced_task_s"], layer
    assert 0.5 < metrics["trace.coverage"]["value"] <= 1.0
    assert metrics["trace.overhead"]["value"] > 0


def test_same_seed_same_tasks_and_digest(runs, tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.unit_tasks(workload, 11, 3, workloads.make_api(), tmp_path)
        b = workloads.unit_tasks(workload, 11, 3, workloads.make_api(), tmp_path)
        assert [(t.name, t.inputs) for t in a] == [(t.name, t.inputs) for t in b]
    runs("norm2d", 1)
    traced = _task_digests("norm2d", 7, 1)
    first, _ = runs("norm2d", 0)
    plain = _task_digests("norm2d", 7, 0)
    again, _ = _parsed(_run("norm2d", 7, 0))
    assert first["digest"] == again["digest"]
    # the traced run's first pass is the same unit, untraced
    assert traced[: len(plain)] == plain


def _task_digests(workload, seed, trace):
    data = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return [r["digest"] for r in data["task_results"]]


def test_different_seed_different_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.unit_tasks(workload, 1, 0, workloads.make_api(), tmp_path)
        b = workloads.unit_tasks(workload, 2, 0, workloads.make_api(), tmp_path)
        assert [t.inputs for t in a] != [t.inputs for t in b]


def test_tail_percentile():
    many = run.tail([float(i) for i in range(30)])
    assert many["value"] == 19.0 and many["beyond"] == 10
    few = run.tail([float(i) for i in range(15)])
    assert few["value"] == 14.0 and few["beyond"] == 0


def test_host_speed_scale_uses_the_geometric_mean_reading():
    ref, e = hostspeed.REFERENCE_S, hostspeed.ELASTICITY
    assert hostspeed.scale([ref]) == pytest.approx(1.0)
    assert hostspeed.scale([ref, 4 * ref]) == pytest.approx(0.5**e)
    assert hostspeed.sample() > 0


def test_family_size_matches_the_dyadic_closed_form():
    assert tracing.family_size("no_bump", workloads.EXPS, 8, "dyadic") == 511**2
    # 1D one-third family at depth 6: 127 std cubes plus 2 * sum(2^l + 1)
    assert tracing.family_size("no_bump", workloads.EXPS, 6, "onethird") == 395**2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("scan2d", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
