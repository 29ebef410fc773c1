"""Run the verification suite over a range of seeds and report every failing row.

    python tools/verify_sweep.py --seeds 0:400
    python tools/verify_sweep.py --seeds 0:400 --src OTHER/src

Each seed in [A, B) runs `run_suite` at the `dyadlab verify` defaults
(1D depth 8, 2D depth 5), the rows `dyadlab verify --seed k` reports.
Every failing row is printed with its seed, lhs and bound, and a seed
whose row count differs from the first seed's is reported too.  The exit
status is 1 when any row fails or any count differs, else 0.  dyadlab is
imported from --src, the src/ directory next to this script unless given.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> range:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"--seeds takes A:B, got {text!r}")
    try:
        seeds = range(int(lo), int(hi))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--seeds takes integers A:B, got {text!r}") from None
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"--seeds needs 0 <= A < B, got {text!r}")
    return seeds


def sweep(seeds: range, out=sys.stdout) -> int:
    """Run the suite at every seed; returns the number of failing rows and
    seeds whose row count differs."""
    from dyadlab.suite import run_suite

    bad, count, start = 0, None, time.perf_counter()
    for seed in seeds:
        rows = run_suite(seed=seed)
        count = len(rows) if count is None else count
        if len(rows) != count:
            print(f"seed {seed}: {len(rows)} rows, expected {count}", file=out)
            bad += 1
        for row in rows:
            if not row.passed:
                print(f"seed {seed}: FAIL {row.name} lhs={row.lhs!r} bound={row.bound!r}", file=out)
                bad += 1
    took = time.perf_counter() - start
    print(f"seeds {seeds.start}:{seeds.stop}: {count} rows each, {bad} failures, {took:.0f} s", file=out)
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, required=True, metavar="A:B")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="dyadlab source to run")
    ns = ap.parse_args(argv)
    sys.path.insert(0, str(ns.src.resolve()))
    return 1 if sweep(ns.seeds) else 0


if __name__ == "__main__":
    sys.exit(main())
