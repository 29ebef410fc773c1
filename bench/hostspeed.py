"""The speed of the host during a run, from a fixed calibration kernel.

On a shared host the same call can run up to twice as slow for seconds at a
time, in phases that outlast a task and sometimes a whole run: the kernel
below reads either about REFERENCE_S or about 1.8 times that, depending on
what else the host is doing.  Timings are therefore reported in reference
seconds: a wall time multiplied by scale(readings), where the readings are
the kernel's times taken just before and just after the interval timed.

The kernel is a pure-Python loop plus many small numpy calls, and it never
calls dyadlab, so a change to the program moves the scaled timings in the
same proportion as the wall times.  dyadlab's tasks slow down less than the
kernel does (in the slow phase the kernel takes about 1.75 times as long and
a verify task about 1.5 times), so the scale is the kernel's speed ratio to
the power ELASTICITY.  Over recorded traces of each workload, cut into
40-second windows, 0.6 gave the least spread across all three: the
quartile spread of tasks per second fell from 0.108 to 0.055 on verify,
from 0.090 to 0.032 on scan2d and from 0.056 to 0.025 on norm2d.

The readings are combined by their geometric mean, which moves smoothly
with the share of slow readings; their median would jump from one phase to
the other.  Each reading is the median of a few short repeats, so a pause
of a few milliseconds does not become a reading.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0025
ELASTICITY = 0.6
REPEATS = 3

_SMALL = np.linspace(0.0, 1.0, 64)


def _kernel() -> float:
    t0 = perf_counter()
    acc: dict[int, float] = {}
    for i in range(10000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    for _ in range(500):
        (_SMALL * 2.0).sum()
        _SMALL[3:9].max()
    return perf_counter() - t0


def sample() -> float:
    """One reading of the kernel's time, in seconds."""
    return statistics.median(_kernel() for _ in range(REPEATS))


def scale(readings) -> float:
    """Reference seconds per wall second over the interval of the readings."""
    return (REFERENCE_S / statistics.geometric_mean(readings)) ** ELASTICITY
