"""Command-line front end: weight generation, single computations, the
verification suite, norm estimation, and grid sampling.

Exit codes: 0 success, 1 verification failure or a broken internal
contract, 2 configuration error (any other package error), 3 I/O or file
format error.  Every report is a deterministic function of the inputs and
the seed; suite rows are canonically sorted so scheduling never shows.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from .bump import Exponents, bump_cube, characteristic
from .errors import ContractViolationError, DyadlabError, FormatError
from .forms import KernelHandle, norm_estimate
from .grids import sample_grid, verify_grid, verify_work
from .lattice import WEIGHT_FIELDS, doubling_report, full_rect, gen_weight, make_lattice
from .suite import rows_to_csv, rows_to_json, run_suite
from .weightio import read_weight, write_weight

_EXIT_OK = 0
_EXIT_FAIL = 1
_EXIT_CONFIG = 2
_EXIT_IO = 3

class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _depth(text: str) -> int:
    """A --depth value: an integer in 1..24."""
    depth = int(text)
    if not 1 <= depth <= 24:
        raise argparse.ArgumentTypeError(f"depth must be in 1..24, got {depth}")
    return depth


def _report_flags(sub):
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")


def _exponent_flags(sub):
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--q", type=float, default=4.0)
    sub.add_argument("--alpha", type=float, default=0.5)
    sub.add_argument("--beta", type=float, default=0.5)
    sub.add_argument("--m", type=int, default=1)
    sub.add_argument("--n", type=int, default=1)


# no flag abbreviations, so a flag a command does not take can never be
# read as the prefix of one it does (--m as --mode)
_Parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand, and each compute quantity, takes exactly the flags
    it reads; any other flag is refused as unrecognized (exit 2)."""
    parser = _Parser(
        prog="dyadlab",
        description="Desk-scale verification of two-weight inequalities on dyadic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gw = sub.add_parser("gen-weight", help="generate a weight and write it as WGT1")
    gw.add_argument("--depth", type=_depth, default=None, help="lattice depth L, 1..24")
    gw.add_argument("--seed", type=int, default=None, help="the seed field, for kinds that have one")
    gw.add_argument("--out", default=None, help="output path")
    gw.add_argument("--dim", type=int, default=1)
    gw.add_argument("--kind", required=True, choices=sorted(WEIGHT_FIELDS))
    gw.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="descriptor field, repeatable; keys checked against the kind",
    )

    cp = sub.add_parser("compute", help="compute one quantity from weight files")
    quantity = cp.add_subparsers(dest="quantity", required=True, parser_class=_Parser)
    ch = quantity.add_parser("characteristic", help="a characteristic supremum and its witness")
    ch.add_argument("--sigma", required=True, help="weight file (first measure)")
    ch.add_argument("--omega", required=True, help="weight file (second measure)")
    ch.add_argument("--kind", default="product_bump", help="characteristic kind")
    ch.add_argument("--family", choices=["dyadic", "onethird"], default=None)
    _exponent_flags(ch)
    ch.add_argument("--theta", type=float, default=1.0)
    _report_flags(ch)
    bp = quantity.add_parser("bump", help="the theta-bump of the whole box")
    bp.add_argument("--weight", required=True, help="weight file")
    bp.add_argument("--theta", type=float, default=1.0)
    _report_flags(bp)
    db = quantity.add_parser("doubling", help="a doubling scan with its witnesses")
    db.add_argument("--weight", required=True, help="weight file")
    db.add_argument(
        "--mode",
        choices=["cube", "rectangle", "product_reverse", "strong"],
        default="cube",
        help="doubling scan mode",
    )
    _report_flags(db)

    ne = sub.add_parser("norm-estimate", help="lower-bound the bilinear form norm")
    ne.add_argument("--sigma", required=True)
    ne.add_argument("--omega", required=True)
    _exponent_flags(ne)
    ne.add_argument("--iterations", type=int, default=8)
    ne.add_argument("--seed", type=int, default=0)
    _report_flags(ne)

    vf = sub.add_parser("verify", help="run the built-in verification suite")
    vf.add_argument("--depth", type=_depth, default=8, help="1D lattice depth L, 1..24")
    vf.add_argument("--depth2d", type=int, default=5, help="2D lattice depth")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument(
        "--weight",
        action="append",
        default=[],
        help="extra weight file to run weight-level checks on (repeatable)",
    )
    _report_flags(vf)

    gs = sub.add_parser("grid-sample", help="sample random shifted grids as GRID1 descriptors")
    gs.add_argument("--dim", type=int, default=1)
    gs.add_argument("--lo", type=int, default=0)
    gs.add_argument("--hi", type=int, default=8)
    gs.add_argument("--count", type=int, default=1)
    gs.add_argument("--seed", type=int, default=0)
    _report_flags(gs)

    return parser


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as e:
        raise _Exit(_EXIT_IO, f"cannot write {out}: {e}") from e


def _load_weight(path: str, bad_file_code: int = _EXIT_IO):
    try:
        return read_weight(path)
    except FormatError as e:
        raise _Exit(bad_file_code, f"{path}: {e}") from e
    except OSError as e:
        raise _Exit(_EXIT_IO, f"cannot read {path}: {e}") from e


def _parse_params(pairs, kind: str, seed: int | None) -> dict:
    """The descriptor of --kind and its --param fields, which gen_weight
    checks against the kind; --seed, when given, is the seed field unless
    a --param sets it, so a kind without one refuses it."""
    spec = {"kind": kind}
    for pair in pairs:
        key, eq, raw = pair.partition("=")
        if not eq:
            raise _Exit(_EXIT_CONFIG, f"--param needs KEY=VALUE, got {pair!r}")
        if key == "kind":
            raise _Exit(_EXIT_CONFIG, "the kind is set by --kind, not by --param")
        try:
            spec[key] = json.loads(raw)
        except json.JSONDecodeError:
            spec[key] = raw
    if seed is not None:
        spec.setdefault("seed", seed)
    return spec


def cmd_gen_weight(ns) -> int:
    if ns.depth is None:
        raise _Exit(_EXIT_CONFIG, "gen-weight needs --depth")
    if ns.out is None:
        raise _Exit(_EXIT_CONFIG, "gen-weight needs --out")
    lat = make_lattice(ns.dim, ns.depth)
    w = gen_weight(lat, _parse_params(ns.param, ns.kind, ns.seed))
    try:
        write_weight(ns.out, w)
    except OSError as e:
        raise _Exit(_EXIT_IO, f"cannot write {ns.out}: {e}") from e
    return _EXIT_OK


def _exps_from(ns, theta: float = 1.0) -> Exponents:
    return Exponents(p=ns.p, q=ns.q, alpha=ns.alpha, beta=ns.beta, m=ns.m, n=ns.n, theta=theta)


def _witness_fields(wit) -> dict:
    """A doubling witness as report fields: boxes in cell units."""
    return {
        "kind": wit.kind,
        "rect_lo": list(wit.rect.lo),
        "rect_hi": list(wit.rect.hi),
        "other_lo": list(wit.other.lo),
        "other_hi": list(wit.other.hi),
        "axis": wit.axis,
        "shrink": wit.shrink,
        "value": wit.value,
    }


def cmd_compute(ns) -> int:
    if ns.quantity == "characteristic":
        sigma, omega = _load_weight(ns.sigma), _load_weight(ns.omega)
        res = characteristic(ns.kind, None, sigma, omega, _exps_from(ns, ns.theta), family=ns.family)
        if ns.fmt == "json":
            text = json.dumps({"quantity": "characteristic", "row": res.csv_row()}, indent=2) + "\n"
        else:
            text = "kind,p,q,theta,alpha,beta,value,levels,indices\n" + res.csv_row() + "\n"
    elif ns.quantity == "bump":
        w = _load_weight(ns.weight)
        value = bump_cube(full_rect(w.lattice), w, ns.theta)
        if ns.fmt == "json":
            text = json.dumps({"quantity": "bump", "theta": ns.theta, "value": value}, indent=2) + "\n"
        else:
            text = f"quantity,theta,value\nbump,{ns.theta:.17g},{value:.17g}\n"
    else:
        w = _load_weight(ns.weight)
        rep = doubling_report(w, ns.mode)
        payload = {
            "quantity": "doubling",
            "mode": rep.mode,
            "constant": rep.constant,
            "infinite": rep.infinite,
            "rev_C": rep.rev_C,
            "rev_eps": list(rep.rev_eps) if rep.rev_eps else None,
            "rev_eps_cube": rep.rev_eps_cube,
            "strong_beta": rep.strong_beta,
            "passes_reverse": rep.passes_reverse if rep.mode == "product_reverse" else None,
        }
        witnesses = {name: _witness_fields(wit) for name, wit in sorted(rep.witnesses.items())}
        if ns.fmt == "json":
            text = json.dumps({**payload, "witnesses": witnesses}, indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["field", "value"])
            writer.writerows((key, str(val)) for key, val in payload.items())
            writer.writerows(
                (f"witness/{name}/{key}", str(val))
                for name, fields in witnesses.items()
                for key, val in fields.items()
            )
            text = buf.getvalue()
    _write_out(text, ns.out)
    return _EXIT_OK


def cmd_norm_estimate(ns) -> int:
    sigma, omega = _load_weight(ns.sigma), _load_weight(ns.omega)
    exps = _exps_from(ns)
    kernel = KernelHandle.from_exponents(exps)
    est = norm_estimate(kernel, sigma, omega, exps, iterations=ns.iterations, seed=ns.seed)
    if ns.fmt == "json":
        payload = {
            "quantity": "norm_estimate",
            "seed": ns.seed,
            "trace": [
                {"start": t, "halfstep": h, "objective": obj} for t, h, obj in est.trace
            ],
            "lower_bound": est.lower_bound,
            "indicator_floor": est.indicator_floor,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["iteration,objective,seed"]
        for i, (_, _, obj) in enumerate(est.trace):
            lines.append(f"{i},{obj:.17g},{ns.seed}")
        lines.append(f"lower_bound,{est.lower_bound:.17g}")
        text = "\n".join(lines) + "\n"
    _write_out(text, ns.out)
    if ns.out is not None:
        print(f"certified lower bound {est.lower_bound:.17g}")
    return _EXIT_OK


def cmd_verify(ns) -> int:
    extra = []
    for path in ns.weight:
        # weight files named in the verify config are configuration: a bad
        # file is a config error, unlike compute where it is an I/O error
        w = _load_weight(path, bad_file_code=_EXIT_CONFIG)
        extra.append((Path(path).stem, w))
    rows = run_suite(depth=ns.depth, depth_2d=ns.depth2d, seed=ns.seed, extra_weights=extra)
    text = rows_to_json(rows) if ns.fmt == "json" else rows_to_csv(rows)
    _write_out(text, ns.out)
    failures = [r for r in rows if not r.passed]
    for r in failures:
        print(f"FAIL {r.name} lhs={r.lhs:.6g} bound={r.bound:.6g}", file=sys.stderr)
    return _EXIT_FAIL if failures else _EXIT_OK


def cmd_grid_sample(ns) -> int:
    verify_work(ns.count, ns.dim, ns.lo, ns.hi)
    lines = []
    for k in range(ns.count):
        grid = sample_grid(ns.seed + k, ns.dim, ns.lo, ns.hi)
        verify_grid(grid)
        lines.append(grid.descriptor())
    text = json.dumps(lines, indent=2) if ns.fmt == "json" else "\n".join(lines)
    _write_out(text + "\n", ns.out)
    return _EXIT_OK


_DISPATCH = {
    "gen-weight": cmd_gen_weight,
    "compute": cmd_compute,
    "norm-estimate": cmd_norm_estimate,
    "verify": cmd_verify,
    "grid-sample": cmd_grid_sample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else _EXIT_OK
    try:
        return _DISPATCH[ns.command](ns)
    except _Exit as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except DyadlabError as e:
        if isinstance(e, FormatError):
            print(f"file format error: {e}", file=sys.stderr)
            return _EXIT_IO
        if isinstance(e, ContractViolationError):
            print(f"contract violation: {e}", file=sys.stderr)
            return _EXIT_FAIL
        print(f"configuration error: {e}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return _EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
