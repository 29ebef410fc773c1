"""In-memory spans around calls into dyadlab's layers, and the per-layer
metrics derived from them.

A span records its name ("<layer>.<function>"), start, end, the index of
the span that was open when it started, the task it belongs to and whether
the call raised.  Spans are only recorded by wrappers installed here, around
public names (no leading underscore); the program itself is not edited.
Nothing here runs unless a traced run asks for it, and `Tracer.uninstall`
restores every attribute it replaced.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

LAYERS = ("lattice", "grids", "bump", "embed", "forms", "weightio", "suite", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    task: int
    error: bool


class Tracer:
    """Collects spans and work counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.task = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        # Weight objects whose prefix(theta) the run has asked for, kept
        # alive until the unit ends so that ids stay unique.
        self._seen: dict[tuple[int, float], object] = {}

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(counters, arguments, result) adds work
        counts, with arguments bound to fn's parameter names."""
        tracer = self
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            idx = len(spans)
            spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            error = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = perf_counter()
                tracer.stack.pop()
                spans[idx] = Span(name, start, end, parent, tracer.task, error)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer.counters, bound.arguments, result)
            return result

        return traced

    def traced(self, fn):
        """fn wrapped in a span named after its module and function."""
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        return self.wrap(name, fn, COUNTERS.get(name))

    def run_task(self, task_id: int, fn):
        """Run one task under a root span named "task"."""
        self.task = task_id
        try:
            return self.wrap("task", fn)()
        finally:
            self.task = -1

    def end_unit(self) -> None:
        self._seen.clear()

    # -- installing wrappers ---------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap Weight.prefix, and the layer functions suite and cli import."""
        import dyadlab.cli
        import dyadlab.suite
        from dyadlab.lattice import Weight

        build = self.wrap("lattice.prefix", Weight.prefix, count=_count_prefix)
        lookup = Weight.prefix
        seen = self._seen

        def prefix(w, theta=1.0):
            key = (id(w), float(theta))
            if key in seen:
                return lookup(w, theta)
            seen[key] = w
            return build(w, theta)

        self._replace(Weight, "prefix", prefix)
        for module, own in ((dyadlab.suite, "dyadlab.suite"), (dyadlab.cli, "dyadlab.cli")):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("dyadlab.") or home == own:
                    continue
                self._replace(module, attr, self.traced(value))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)
        self._seen.clear()

    # -- reduction ---------------------------------------------------------

    def totals(self):
        """Per span name: self time, call count, error count; plus the wall
        time of tasks and the part of it covered by layer spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        errors: dict[str, int] = defaultdict(int)
        task_wall = 0.0
        for i, s in enumerate(spans):
            dur = s.end - s.start
            if s.name == "task":
                task_wall += dur
                continue
            busy[s.name] += dur - child_time[i]
            calls[s.name] += 1
            errors[s.name] += int(s.error)
        covered = sum(child_time[i] for i, s in enumerate(spans) if s.name == "task")
        return busy, calls, errors, task_wall, covered

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.task, s.error] for s in self.spans]


# ---------------------------------------------------------------------------
# work counts taken from call arguments and results


def _count_prefix(c, a, result) -> None:
    c["prefix_bytes"] += result.nbytes


def _doubling_boxes(dim: int, depth: int, mode: str) -> int:
    """Box masses a doubling scan gathers on a 2^depth lattice per axis."""
    n = 1 << depth
    even = range(2, n + 1, 2)
    if mode == "cube":
        return 2 * sum((n - m + 1) ** dim for m in even)
    if mode == "rectangle":
        return 2 * math.prod(sum(n - m + 1 for m in even) for _ in range(dim))
    if mode == "strong":
        all_sizes = sum(n - m + 1 for m in range(1, n + 1))
        return 3 * dim * sum(n - m + 1 for m in even) * all_sizes ** (dim - 1)
    if mode == "product_reverse":
        total = 0
        for levels in itertools.product(range(depth + 1), repeat=dim):
            count = 1 << sum(levels)
            shrinks = sum(max(depth - lv - 1, 0) for lv in levels)
            if len(set(levels)) == 1:
                shrinks += max(depth - levels[0] - 1, 0)
            total += count * (1 + shrinks)
        return total
    return 0


def _count_doubling(c, a, result) -> None:
    lat = a["w"].lattice
    c["doubling_boxes"] += _doubling_boxes(lat.dim, lat.depth, a["mode"])


@functools.lru_cache(maxsize=None)
def _family_cubes(family: str, dim: int, depth: int) -> int:
    """Cubes a scan visits on one factor: every level 0..depth of every grid,
    counting the cubes that meet the open unit box."""
    from dyadlab.grids import onethird_grids

    if family == "dyadic":
        return sum(1 << (level * dim) for level in range(depth + 1))
    total = 0
    for grid in onethird_grids(dim, 0, depth):
        for level in range(depth + 1):
            side = Fraction(1, 1 << level)
            count = 1
            for axis in range(dim):
                off = grid.offset(axis, level)
                # k with k*side + off < 1 and (k+1)*side + off > 0
                count *= math.ceil((1 - off) / side) - math.floor(-off / side - 1) - 1
            total += count
    return total


def family_size(kind: str, exps, depth: int, family: str | None) -> int:
    if family is None:
        family = "onethird" if kind == "no_bump" else "dyadic"
    if kind == "one_param":
        return _family_cubes(family, exps.m, depth)
    return _family_cubes(family, exps.m, depth) * _family_cubes(family, exps.n, depth)


def _count_scan(c, a, result) -> None:
    c["rects"] += family_size(a["kind"], a["exps"], a["sigma"].lattice.depth, a["family"])


def _count_norm(c, a, result) -> None:
    c["halfsteps"] += len(result.trace)


COUNTERS = {
    "lattice.doubling_report": _count_doubling,
    "bump.characteristic": _count_scan,
    "forms.norm_estimate": _count_norm,
}


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move).  Busy times and counts are per traced unit (one weight
# pair, or one verify run); ratios are over the whole traced run.

PER_LAYER = [
    ("lattice.prefix_s", "s", "lower", "tasks_per_s, peak_rss_mb on scan2d"),
    ("lattice.prefix_builds", "count", "lower", "tasks_per_s, peak_rss_mb on scan2d"),
    ("lattice.prefix_bytes", "bytes", "lower", "tasks_per_s, peak_rss_mb on scan2d"),
    ("lattice.doubling_s", "s", "lower", "task_p50_s on scan2d"),
    ("lattice.doubling_calls", "count", "lower", "task_p50_s on scan2d"),
    ("lattice.doubling_boxes", "count", "lower", "task_p50_s on scan2d"),
    ("bump.scan_s", "s", "lower", "tasks_per_s, task_tail_s on scan2d"),
    ("bump.scan_calls", "count", "lower", "tasks_per_s, task_tail_s on scan2d"),
    ("bump.rects", "count", "lower", "tasks_per_s, task_tail_s on scan2d"),
    ("bump.rects_per_s", "1/s", "higher", "tasks_per_s, task_tail_s on scan2d"),
    ("bump.witness_s", "s", "lower", "tasks_per_s, task_tail_s on scan2d"),
    ("bump.bump_cube_s", "s", "lower", "tasks_per_s on verify"),
    ("bump.bump_cube_calls", "count", "lower", "tasks_per_s on verify"),
    ("forms.norm_s", "s", "lower", "tasks_per_s, task_tail_s on norm2d"),
    ("forms.norm_calls", "count", "lower", "tasks_per_s, task_tail_s on norm2d"),
    ("forms.halfsteps", "count", "lower", "tasks_per_s, task_tail_s on norm2d"),
    ("forms.halfstep_ms", "ms", "lower", "tasks_per_s, task_tail_s on norm2d"),
    ("forms.surrogate_s", "s", "lower", "tasks_per_s on verify"),
    ("forms.surrogate_calls", "count", "lower", "tasks_per_s on verify"),
    ("forms.surrogate_accept_ratio", "ratio", "higher", "tasks_per_s on verify"),
    ("forms.bilinear_s", "s", "lower", "tasks_per_s on verify"),
    ("embed.rects_s", "s", "lower", "tasks_per_s, task_tail_s on norm2d"),
    ("embed.rects_calls", "count", "lower", "tasks_per_s, task_tail_s on norm2d"),
    ("embed.cubes_s", "s", "lower", "tasks_per_s on verify"),
    ("embed.carleson_s", "s", "lower", "tasks_per_s on verify"),
    ("grids.sandwich_s", "s", "lower", "tasks_per_s, task_p50_s on verify"),
    ("grids.sandwich_calls", "count", "lower", "tasks_per_s, task_p50_s on verify"),
    ("grids.sandwich_us", "us", "lower", "tasks_per_s, task_p50_s on verify"),
    ("grids.verify_grid_s", "s", "lower", "tasks_per_s, task_p50_s on verify"),
    ("grids.bad_prob_s", "s", "lower", "tasks_per_s, task_p50_s on verify"),
    ("weightio.io_s", "s", "lower", "tasks_per_s on verify"),
    ("suite.run_s", "s", "lower", "tasks_per_s on verify"),
    ("suite.report_s", "s", "lower", "tasks_per_s on verify"),
    ("cli.self_s", "s", "lower", "tasks_per_s on verify"),
] + [
    (f"{layer}.errors", "count", "lower", "fail_rate on every workload") for layer in LAYERS
] + [
    ("trace.coverage", "ratio", "higher", "none: share of task time inside layer spans"),
    ("trace.overhead", "ratio", "higher", "none: traced tasks_per_s / untraced tasks_per_s"),
]

# busy-time metrics: metric -> span names whose self time it sums
_BUSY = {
    "lattice.prefix_s": ("lattice.prefix",),
    "lattice.doubling_s": ("lattice.doubling_report",),
    "bump.scan_s": ("bump.characteristic",),
    "bump.witness_s": ("bump.characteristic_at",),
    "bump.bump_cube_s": ("bump.bump_cube",),
    "forms.norm_s": ("forms.norm_estimate",),
    "forms.surrogate_s": ("forms.surrogate_kernel",),
    "forms.bilinear_s": ("forms.bilinear_form", "forms.goodbad_split"),
    "embed.rects_s": ("embed.embed_check_rects",),
    "embed.cubes_s": ("embed.embed_check_cubes",),
    "embed.carleson_s": ("embed.automatic_carleson", "embed.good_carleson", "embed.stopping_cubes"),
    "grids.sandwich_s": ("grids.sandwich",),
    "grids.verify_grid_s": ("grids.verify_grid",),
    "grids.bad_prob_s": ("grids.bad_probability_mc",),
    "weightio.io_s": ("weightio.read_weight", "weightio.write_weight"),
    "suite.run_s": ("suite.run_suite",),
    "suite.report_s": ("suite.rows_to_json", "suite.rows_to_csv"),
    "cli.self_s": ("cli.main",),
}

_CALLS = {
    "lattice.prefix_builds": "lattice.prefix",
    "lattice.doubling_calls": "lattice.doubling_report",
    "bump.scan_calls": "bump.characteristic",
    "bump.bump_cube_calls": "bump.bump_cube",
    "forms.norm_calls": "forms.norm_estimate",
    "forms.surrogate_calls": "forms.surrogate_kernel",
    "embed.rects_calls": "embed.embed_check_rects",
    "grids.sandwich_calls": "grids.sandwich",
}

_COUNTED = {
    "lattice.prefix_bytes": "prefix_bytes",
    "lattice.doubling_boxes": "doubling_boxes",
    "bump.rects": "rects",
    "forms.halfsteps": "halfsteps",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, units: int, untraced_s: float, traced_s: float) -> dict:
    """Every per-layer metric; 0 where the workload never reaches the layer."""
    busy, calls, errors, task_wall, covered = tracer.totals()
    counters = tracer.counters

    def busy_of(names):
        return sum(busy.get(n, 0.0) for n in names)

    out = {}
    for metric, names in _BUSY.items():
        out[metric] = busy_of(names) / units
    for metric, name in _CALLS.items():
        out[metric] = calls.get(name, 0) / units
    for metric, key in _COUNTED.items():
        out[metric] = counters.get(key, 0.0) / units
    for layer in LAYERS:
        out[f"{layer}.errors"] = (
            sum(v for n, v in errors.items() if n.split(".", 1)[0] == layer) / units
        )
    scan_s = busy_of(_BUSY["bump.scan_s"])
    out["bump.rects_per_s"] = _ratio(counters.get("rects", 0.0), scan_s)
    out["forms.halfstep_ms"] = 1e3 * _ratio(
        busy_of(_BUSY["forms.norm_s"]), counters.get("halfsteps", 0.0)
    )
    surrogate = calls.get("forms.surrogate_kernel", 0)
    out["forms.surrogate_accept_ratio"] = _ratio(
        surrogate - errors.get("forms.surrogate_kernel", 0), surrogate
    )
    out["grids.sandwich_us"] = 1e6 * _ratio(
        busy_of(_BUSY["grids.sandwich_s"]), calls.get("grids.sandwich", 0)
    )
    out["trace.coverage"] = _ratio(covered, task_wall)
    out["trace.overhead"] = _ratio(untraced_s, traced_s)
    return out


def layer_busy(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer, over the whole traced run."""
    busy = tracer.totals()[0]
    out = dict.fromkeys(LAYERS, 0.0)
    for name, t in busy.items():
        out[name.split(".", 1)[0]] += t
    return out
