"""dyadlab benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload scan2d --seed 1 --seconds 40 --trace 0

Run from anywhere: the program is imported from the src/ directory next to
this one, and nothing is installed.  A single client runs the workload's
tasks back to back (closed loop, one process, one compute thread), a whole
unit of tasks at a time, until --seconds have passed.  --trace 0 reports
the end-to-end metrics; --trace 1 runs every unit of tasks twice, plain and
then traced, and reports the per-layer metrics.  The last line of standard
output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are in reference seconds (see hostspeed.py): each task's time is
scaled by the host's speed around it, so that the host's drift cancels.
The line before the result is the run report: machine, digest, tail
percentile, fail_rate and the unscaled wall-clock timings.  Scratch files
go to .bench_tmp/ and the full report, with the spans of a traced run, to
.bench_out/, both beside src/.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

# One compute thread: pin every BLAS / OpenMP pool before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
TAIL_BEYOND = 10


@dataclass
class TaskResult:
    name: str
    seconds: float
    ok: bool
    digest: str
    error: str | None


def _prepare_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "dyadlab" / "__init__.py").is_file():
        sys.exit(f"bench: no dyadlab sources at {SRC}")
    TMP_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    # the suite's WGT1 round trip writes a temporary file: keep it here
    os.environ["TMPDIR"] = str(TMP_DIR)
    tempfile.tempdir = str(TMP_DIR)
    sys.path.insert(0, str(SRC))


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("scan2d", "norm2d", "verify"))
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nmant = np.finfo(np.longdouble).nmant
    longdouble = {52: "float64", 63: "80-bit x87 extended", 112: "IEEE quad"}.get(
        nmant, f"{nmant}-bit mantissa"
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble": longdouble,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _digest(task, payload: str) -> str:
    return hashlib.sha256(f"{task.name}\n{task.inputs}\n{payload}".encode()).hexdigest()


def run_tasks(tasks, tracer=None, first_id=0) -> list[TaskResult]:
    """Run one unit's tasks in order, each timed together with its check."""
    out = []
    for i, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            payload = task.run() if tracer is None else tracer.run_task(first_id + i, task.run)
            result = TaskResult(task.name, 0.0, True, _digest(task, payload), None)
        except Exception as exc:  # a task that raises is a failed task, not a failed run
            result = TaskResult(task.name, 0.0, False, "", f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        result.seconds = t1 - t0
        out.append(result)
    return out


def tail(times: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND tasks beyond it.  With
    fewer than 2 * TAIL_BEYOND + 1 tasks that percentile would sit at or
    below the median, so the maximum is reported instead (beyond = 0)."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > 2 * TAIL_BEYOND else 0
    rank = n - 1 - beyond
    return {"value": ordered[rank], "percentile": 100.0 * (rank + 1) / n, "beyond": beyond, "tasks": n}


def _combined(results: list[TaskResult]) -> str:
    return hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest()


def plain_run(tasks_of, api, deadline: float, setup: dict):
    """Untraced run: the end-to-end metrics, in reference seconds.

    The host's speed is read before the first task and after every task,
    and each task's time is scaled by the two readings on either side of
    it: four readings, or fewer at the ends of the run."""
    import hostspeed

    results: list[TaskResult] = []
    readings = [hostspeed.sample()]
    for unit in count():
        for task in tasks_of(unit, api):
            results += run_tasks([task])
            readings.append(hostspeed.sample())
        if time.perf_counter() >= deadline:
            break
    scaled = [
        r.seconds * hostspeed.scale(readings[max(i - 1, 0) : i + 3]) for i, r in enumerate(results)
    ]
    raw = [r.seconds for r in results]
    passed = sum(r.ok for r in results)
    t = tail(scaled)
    metrics = {
        "tasks_per_s": (passed / sum(scaled), "1/s"),
        "task_tail_s": (t["value"], "s"),
        "setup_s": (setup["ref_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_rate": (passed / len(results), "ratio"),
    }
    # Printed but not gated in BENCHMARK.json: scan2d's six task kinds form
    # clusters with a gap where the median falls, so the median swings
    # between the edges of two clusters from run to run.
    report = {
        "task_p50_s": {"value": statistics.median(scaled), "unit": "s"},
        "task_tail": {k: t[k] for k in ("percentile", "beyond", "tasks")},
        "wall": {
            "tasks_per_s": passed / sum(raw),
            "task_p50_s": statistics.median(raw),
            "task_tail_s": tail(raw)["value"],
            "setup_s": setup["wall_s"],
            "scale": sum(scaled) / sum(raw),
        },
    }
    return results, metrics, report, {"host_readings": readings}


def traced_run(tasks_of, api, deadline: float):
    """Each unit plain, then traced: the per-layer metrics and the spans."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    traced_api = workloads.make_api(tracer)
    results: list[TaskResult] = []
    untraced_s = traced_s = 0.0
    same = True
    for unit in count():
        base = run_tasks(tasks_of(unit, api))
        tracer.install()
        try:
            traced = run_tasks(tasks_of(unit, traced_api), tracer=tracer, first_id=len(results))
        finally:
            tracer.uninstall()
        untraced_s += sum(r.seconds for r in base)
        traced_s += sum(r.seconds for r in traced)
        same = same and [r.digest for r in base] == [r.digest for r in traced]
        results += base + traced
        if time.perf_counter() >= deadline:
            break
    units = unit + 1
    values = tracing.layer_metrics(tracer, units, untraced_s, traced_s)
    metrics = {name: (values[name], u) for name, u, _, _ in tracing.PER_LAYER}
    report = {
        "traced_units": units,
        "traced_task_s": traced_s,
        "layer_busy_s": tracing.layer_busy(tracer),
        "digests_match_untraced": same,
    }
    return results, metrics, report, {"spans": tracer.dump()}


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare_environment()

    import dyadlab
    import hostspeed
    import oracle
    import workloads

    if SRC not in Path(dyadlab.__file__).resolve().parents:
        sys.exit(f"bench: imported dyadlab from {dyadlab.__file__}, not from {SRC}")
    wl, seed = args.workload, args.seed

    # the oracle runs SETUP_REPEATS times and counts once, at its median;
    # the host-speed readings between the repeats are not set-up time
    t = time.perf_counter()
    readings = [hostspeed.sample()]
    oracle_times, sampling_s = [], time.perf_counter() - t
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        try:
            checks = oracle.run_oracle(seed, *workloads.pair_specs("scan2d", seed, 0), workloads.EXPS)
        except oracle.OracleMismatch as exc:
            sys.exit(f"bench: oracle mismatch: {exc}")
        t1 = time.perf_counter()
        oracle_times.append(t1 - t)
        readings.append(hostspeed.sample())
        sampling_s += time.perf_counter() - t1

    def tasks_of(unit, api):
        return workloads.unit_tasks(wl, seed, unit, api, TMP_DIR)

    plain = workloads.make_api()
    start = time.perf_counter()
    wall_s = start - _T0 - sampling_s - sum(oracle_times) + statistics.median(oracle_times)
    setup = {"wall_s": wall_s, "ref_s": wall_s * hostspeed.scale(readings)}
    deadline = start + args.seconds
    if args.trace:
        results, metrics, report, extra = traced_run(tasks_of, plain, deadline)
    else:
        results, metrics, report, extra = plain_run(tasks_of, plain, deadline, setup)

    failed = [r for r in results if not r.ok]
    report.update(
        workload=wl,
        seed=seed,
        trace=args.trace,
        seconds=args.seconds,
        machine=machine_record(),
        tasks=len(results),
        digest=_combined(results),
        fail_rate={"value": len(failed) / len(results), "unit": "ratio"},
        failures=[f"{r.name}: {r.error}" for r in failed[:5]],
        oracle={"checks": checks, "seconds": oracle_times},
    )
    full = dict(report, task_results=[asdict(r) for r in results], **extra)
    out_file = OUT_DIR / f"{wl}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(full, separators=(",", ":")))
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": not failed and report.get("digests_match_untraced", True),
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
