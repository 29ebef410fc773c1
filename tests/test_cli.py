"""Front-end contract tests: exit codes, report shapes, determinism.

Suite content is exercised at reduced depths; the mathematical checks
themselves are covered per module, so here the oracle is the interface:
0 success, 1 failed verification, 2 bad configuration, 3 bad files.
"""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dyadlab import characteristic, doubling_report, Exponents, gen_weight, make_lattice
from dyadlab.cli import main
from dyadlab.grids import parse_grid
from dyadlab.suite import CheckRow, rows_to_csv, rows_to_json, run_suite
from dyadlab.weightio import read_weight, write_weight


def _gen(tmp_path, name, dim=2, depth=4, seed=3, rough=0.5):
    lat = make_lattice(dim, depth)
    w = gen_weight(lat, {"kind": "random_lognormal", "seed": seed, "roughness": rough})
    path = tmp_path / name
    write_weight(path, w)
    return path, w


# ---------------------------------------------------------------------------
# suite internals


def test_run_suite_all_pass_and_sorted():
    rows = run_suite(depth=8, depth_2d=4, seed=1)
    assert all(r.passed for r in rows)
    names = [r.name for r in rows]
    assert names == sorted(names)
    assert len(rows) >= 20


def test_suite_reports_extra_weight_rows():
    lat = make_lattice(1, 5)
    w = gen_weight(lat, {"kind": "random_lognormal", "seed": 2, "roughness": 0.4})
    rows = run_suite(depth=8, depth_2d=3, seed=0, extra_weights=[("mine", w)])
    mine = [r for r in rows if r.name.startswith("user/mine/")]
    assert len(mine) == 2
    assert all(r.passed for r in mine)


def test_rows_serialize_deterministically():
    rows = [CheckRow("a/b", "n=1", 0.5, 1.0, True, witness="w")]
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == "check,parameters,lhs,bound,ratio,pass,witness"
    assert rows_to_csv(rows) == csv_text
    parsed = rows_to_json(rows)
    assert '"ratio": 0.5' in parsed


# ---------------------------------------------------------------------------
# gen-weight


def test_gen_weight_roundtrip(tmp_path):
    out = tmp_path / "w.wgt"
    code = main(
        [
            "gen-weight",
            "--kind",
            "cascade",
            "--dim",
            "1",
            "--depth",
            "6",
            "--seed",
            "5",
            "--param",
            "beta=0.7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    back = read_weight(out)
    direct = gen_weight(make_lattice(1, 6), {"kind": "cascade", "beta": 0.7, "seed": 5})
    np.testing.assert_array_equal(back.density, direct.density)


def test_gen_weight_rejects_unknown_key(tmp_path):
    code = main(
        [
            "gen-weight",
            "--kind",
            "constant",
            "--depth",
            "3",
            "--param",
            "wat=1",
            "--out",
            str(tmp_path / "w.wgt"),
        ]
    )
    assert code == 2


def test_gen_weight_needs_depth(tmp_path):
    assert main(["gen-weight", "--kind", "constant", "--out", str(tmp_path / "w.wgt")]) == 2


def test_unknown_flag_is_config_error(capsys):
    assert main(["verify", "--not-a-flag"]) == 2
    capsys.readouterr()


_COMMANDS = {
    "gen-weight": ["gen-weight", "--kind", "constant", "--depth", "3", "--out", "{tmp}/w.wgt"],
    "characteristic": ["compute", "characteristic", "--sigma", "{tmp}/sig.wgt", "--omega", "{tmp}/om.wgt"],
    "bump": ["compute", "bump", "--weight", "{tmp}/sig.wgt"],
    "doubling": ["compute", "doubling", "--weight", "{tmp}/sig.wgt"],
    "norm-estimate": ["norm-estimate", "--sigma", "{tmp}/sig.wgt", "--omega", "{tmp}/om.wgt"],
    "grid-sample": ["grid-sample"],
}
# a valid value for each flag, so that only the flag itself is refused
_VALUES = {
    "--format": "json", "--depth": "3", "--seed": "1", "--weight": "{tmp}/sig.wgt",
    "--sigma": "{tmp}/sig.wgt", "--omega": "{tmp}/om.wgt", "--mode": "cube", "--p": "2",
    "--q": "4", "--alpha": "0.5", "--beta": "0.5", "--theta": "1.5", "--m": "1", "--n": "1",
    "--kind": "product_bump", "--family": "dyadic",
}
_EXPONENTS = ["--p", "--q", "--alpha", "--beta", "--m", "--n"]
_NOT_READ = (
    [("gen-weight", "--format")]
    + [("characteristic", f) for f in ["--depth", "--seed", "--weight", "--mode"]]
    + [("bump", f) for f in ["--depth", "--seed", "--sigma", "--omega", *_EXPONENTS,
                             "--kind", "--family", "--mode"]]
    + [("doubling", f) for f in ["--depth", "--seed", "--sigma", "--omega", *_EXPONENTS,
                                 "--theta", "--kind", "--family"]]
    + [("norm-estimate", f) for f in ["--depth", "--theta"]]
    + [("grid-sample", "--depth")]
)


@pytest.mark.parametrize("command, flag", _NOT_READ, ids=[f"{c}{f}" for c, f in _NOT_READ])
def test_a_flag_the_command_does_not_read_exits_2(command, flag, tmp_path, capsys):
    # each command declares exactly the flags it reads: any other is
    # refused as unrecognized rather than validated and dropped
    _gen(tmp_path, "sig.wgt", depth=3, seed=6)
    _gen(tmp_path, "om.wgt", depth=3, seed=7)
    argv = [a.format(tmp=tmp_path) for a in _COMMANDS[command] + [flag, _VALUES[flag]]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"unrecognized arguments: {flag} " in captured.err
    assert not (tmp_path / "w.wgt").exists()
    # the command line without that flag runs
    assert main(argv[:-2]) == 0


def test_not_read_pairs_are_every_pair_the_commands_dropped():
    assert len(_NOT_READ) == len(set(_NOT_READ)) == 34


@pytest.mark.parametrize("kind", ["constant", "power", "halfspace_cutoff", "checkerboard"])
def test_gen_weight_refuses_seed_for_a_kind_without_one(kind, tmp_path, capsys):
    # --seed is the seed field, so a kind without one refuses it as it
    # refuses --param seed=
    out = tmp_path / "w.wgt"
    argv = ["gen-weight", "--depth", "3", "--kind", kind, "--param", "exponent=1", "--out", str(out)]
    argv = argv if kind == "power" else argv[:5] + argv[7:]
    for extra in (["--seed", "3"], ["--param", "seed=3"]):
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "'seed'" in err and not out.exists()
    assert main(argv) == 0


def test_gen_weight_refuses_seed_with_param_seed(tmp_path, capsys):
    # both flags set the seed field: the pair is refused, naming both,
    # rather than one of them dropped
    out = tmp_path / "w.wgt"
    argv = ["gen-weight", "--kind", "random_lognormal", "--depth", "3", "--out", str(out)]
    assert main(argv + ["--seed", "5", "--param", "seed=3"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "--seed" in err and "--param seed=" in err and not out.exists()
    for extra in (["--seed", "5"], ["--param", "seed=5"]):
        assert main(argv + extra) == 0
        assert read_weight(out).density.tobytes() == gen_weight(
            make_lattice(1, 3), {"kind": "random_lognormal", "seed": 5}).density.tobytes()


def test_grid_sample_past_the_work_budget_exits_2(monkeypatch, capsys):
    # the work estimate is checked before any grid is sampled: a run one
    # unit over a small limit exits 2, a run at the limit samples its grids
    from dyadlab import cli, grids

    argv = ["grid-sample", "--dim", "2", "--lo", "1", "--hi", "7", "--count", "3"]
    need = grids.verify_work(3, 2, 1, 7)
    sampled = []
    monkeypatch.setattr(cli, "sample_grid", lambda *a: sampled.append(a) or grids.sample_grid(*a))
    monkeypatch.setattr(grids, "VERIFY_BUDGET", need - 1)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"limit {need - 1}" in err
    assert sampled == []
    monkeypatch.setattr(grids, "VERIFY_BUDGET", need)
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3 == len(sampled)
    # the real limit refuses a deep level range at once, and a single level
    # far from level 0, whose probes take integers of about as many bits
    monkeypatch.undo()
    for levels in (["--hi", "2000"], ["--lo", str(2**64), "--hi", str(2**64)],
                   ["--lo", str(-(2**64)), "--hi", str(-(2**64))]):
        assert main(["grid-sample", *levels]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_grid_sample_negative_count_exits_2(capsys):
    # a negative count is refused as --iterations -1 is, not read as 0
    assert main(["grid-sample", "--count", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("configuration error:") and "-5" in captured.err


@pytest.mark.parametrize("depth2d", [-1, 0, 1])
def test_verify_refuses_a_2d_depth_below_2(depth2d, capsys, monkeypatch):
    # the far-field check puts a point mass on cell (1, 2), so the suite
    # refuses such a lattice before any check runs
    from dyadlab import suite

    monkeypatch.setattr(suite, "_check_prefix_agreement", lambda *a: pytest.fail("a check ran"))
    assert main(["verify", "--depth2d", str(depth2d)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("configuration error:")


@pytest.mark.parametrize(
    "argv", [["--depth", "24", "--depth2d", "13"], ["--depth2d", "100"]], ids=["2d-13", "2d-100"]
)
def test_verify_refuses_an_over_budget_lattice_before_any_check(argv, capsys, monkeypatch):
    # both lattices are checked against the cell budget up front, so no
    # 1D check runs before the 2D lattice is refused
    from dyadlab import suite

    monkeypatch.setattr(suite, "_check_prefix_agreement", lambda *a: pytest.fail("a check ran"))
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("configuration error: cell budget exceeded")


@pytest.mark.parametrize("depth", range(1, 8))
def test_verify_refuses_a_depth_below_8(depth, capsys, monkeypatch):
    # embed/cube-ratio-stability compares depth - 2 with depth against a
    # fixed bound that shallower lattices pass only on some seeds
    from dyadlab import suite

    monkeypatch.setattr(suite, "_check_prefix_agreement", lambda *a: pytest.fail("a check ran"))
    assert main(["verify", "--depth", str(depth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("configuration error:")


_OUT_OF_RANGE = "depth must be in 1..24, got {depth}"
_UNRECOGNIZED = "unrecognized arguments: --depth {depth}"


@pytest.mark.parametrize("depth", ["0", "25"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-weight", "--kind", "constant", "--out", "{tmp}/w.wgt"], _OUT_OF_RANGE),
        (["compute", "bump", "--weight", "{tmp}/sig.wgt"], _UNRECOGNIZED),
        (["norm-estimate", "--sigma", "{tmp}/sig.wgt", "--omega", "{tmp}/om.wgt"], _UNRECOGNIZED),
        (["verify"], _OUT_OF_RANGE),
        (["grid-sample"], _UNRECOGNIZED),
    ],
    ids=["gen-weight", "compute", "norm-estimate", "verify", "grid-sample"],
)
def test_depth_out_of_range_exits_2(argv, message, depth, tmp_path, capsys):
    # gen-weight and verify read --depth and check its range; the other
    # commands take no --depth and refuse it as unrecognized
    _gen(tmp_path, "sig.wgt", depth=3, seed=6)
    _gen(tmp_path, "om.wgt", depth=3, seed=7)
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--depth", depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert message.format(depth=depth) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-weight", "--dim", "4", "--depth", "7", "--kind", "constant", "--out", "{tmp}"],
        ["gen-weight", "--depth", "3", "--kind", "power", "--param", "exponent=abc", "--out", "{tmp}"],
        ["grid-sample", "--lo", "5", "--hi", "2"],
    ],
    ids=["cell-budget", "non-numeric-field", "inverted-levels"],
)
def test_package_errors_exit_2_without_traceback(argv, tmp_path, capsys):
    argv = [a.format(tmp=tmp_path / "w.wgt") for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("configuration error:")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("cascade", ["beta=0.7", "seed=1.5"]),
        ("checkerboard", ["levels=1.5"]),
        ("random_lognormal", ["seed=Infinity"]),
        ("constant", ["valu=2"]),
        ("constant", ["kind=cascade"]),
    ],
    ids=["fractional-seed", "fractional-levels", "infinite-seed", "unknown-field", "kind-field"],
)
def test_gen_weight_bad_field_exits_2(kind, params, tmp_path, capsys):
    # gen_weight reads each kind's fields from one table and refuses an
    # unknown field or an integer field with a fraction, writing nothing
    out = tmp_path / "w.wgt"
    argv = ["gen-weight", "--depth", "3", "--kind", kind, "--out", str(out)]
    assert main(argv + [f for p in params for f in ("--param", p)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-weight", "--depth", "3", "--kind", "random_lognormal", "--seed", "-1",
         "--out", "{tmp}/w.wgt"],
        ["gen-weight", "--depth", "3", "--kind", "random_lognormal", "--param", "seed=-1",
         "--out", "{tmp}/w.wgt"],
        ["norm-estimate", "--sigma", "{tmp}/sig.wgt", "--omega", "{tmp}/om.wgt", "--seed", "-1"],
        ["verify", "--seed", "-1"],
        ["grid-sample", "--seed", "-1"],
    ],
    ids=["gen-weight", "gen-weight-param", "norm-estimate", "verify", "grid-sample"],
)
def test_negative_seed_is_config_error(argv, tmp_path, capsys):
    _gen(tmp_path, "sig.wgt", depth=3, seed=6)
    _gen(tmp_path, "om.wgt", depth=3, seed=7)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("configuration error:")
    assert "seed" in captured.err and "-1" in captured.err


# ---------------------------------------------------------------------------
# compute


def test_compute_characteristic_matches_library(tmp_path, capsys):
    sig_path, sig = _gen(tmp_path, "sig.wgt", seed=3)
    om_path, om = _gen(tmp_path, "om.wgt", seed=4)
    code = main(
        [
            "compute",
            "characteristic",
            "--kind",
            "product_bump",
            "--sigma",
            str(sig_path),
            "--omega",
            str(om_path),
            "--p",
            "2",
            "--q",
            "4",
            "--theta",
            "1.5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, theta=1.5)
    want = characteristic("product_bump", None, sig, om, exps)
    value = float(out.splitlines()[1].split(",")[6])
    assert value == want.value


def test_compute_rejects_bad_exponents(tmp_path):
    sig_path, _ = _gen(tmp_path, "sig.wgt")
    om_path, _ = _gen(tmp_path, "om.wgt")
    code = main(
        [
            "compute",
            "characteristic",
            "--sigma",
            str(sig_path),
            "--omega",
            str(om_path),
            "--p",
            "4",
            "--q",
            "2",
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "characteristic", "--sigma", "{tmp}/sig.wgt", "--omega", "{tmp}/om.wgt", "--theta", "nan"],
        ["compute", "characteristic", "--sigma", "{tmp}/sig.wgt", "--omega", "{tmp}/om.wgt", "--theta", "inf"],
        ["compute", "characteristic", "--sigma", "{tmp}/sig.wgt", "--omega", "{tmp}/om.wgt", "--theta", "1e308"],
        ["compute", "characteristic", "--sigma", "{tmp}/sig.wgt", "--omega", "{tmp}/sig.wgt", "--theta", "1e308"],
        ["compute", "bump", "--weight", "{tmp}/sig.wgt", "--theta", "nan"],
        ["compute", "bump", "--weight", "{tmp}/sig.wgt", "--theta", "1e308"],
    ],
    ids=["characteristic-nan", "characteristic-inf", "characteristic-overflow",
         "characteristic-overflow-same-weight", "bump-nan", "bump-overflow"],
)
def test_non_finite_or_overflowing_theta_exits_2(argv, tmp_path, capsys):
    # a density**theta that overflows float64 is refused where it is
    # powered, before any sum turns it into inf or NaN
    _gen(tmp_path, "sig.wgt", depth=3, seed=6)
    _gen(tmp_path, "om.wgt", depth=3, seed=7)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("configuration error:")


def test_compute_missing_file_is_io_error(tmp_path, capsys):
    assert main(["compute", "bump", "--weight", str(tmp_path / "no.wgt"), "--theta", "2"]) == 3
    capsys.readouterr()


def test_compute_malformed_weight_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.wgt"
    bad.write_text("WGT1 d=1 L=2\n1.0 2.0 -1.0 1.0\n")
    assert main(["compute", "bump", "--weight", str(bad), "--theta", "2"]) == 3
    short = tmp_path / "short.wgt"
    short.write_text("WGT1 d=1 L=2\n1.0 2.0 3.0\n")
    assert main(["compute", "bump", "--weight", str(short), "--theta", "2"]) == 3
    capsys.readouterr()


def _witness_row(wit) -> dict:
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


def test_compute_doubling_json(tmp_path, capsys):
    path, w = _gen(tmp_path, "w.wgt", dim=1, depth=5)
    code = main(
        ["compute", "doubling", "--weight", str(path), "--mode", "product_reverse", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert '"mode": "product_reverse"' in out
    # every witness of the scan, its boxes in cell units
    rep = doubling_report(read_weight(path), "product_reverse")
    got = json.loads(out)["witnesses"]
    assert sorted(got) == ["reverse_axis_0", "reverse_cube"]
    assert got == {name: _witness_row(wit) for name, wit in rep.witnesses.items()}
    assert got["reverse_axis_0"]["kind"] == "shrink" and got["reverse_axis_0"]["shrink"] >= 1
    code = main(["compute", "doubling", "--weight", str(path), "--mode", "strong", "--format", "json"])
    strong = json.loads(capsys.readouterr().out)["witnesses"]["strong"]
    assert code == 0 and strong["kind"] == "half" and strong["axis"] == 0


@pytest.mark.parametrize("mode", ["strong", "rectangle"])
def test_compute_doubling_over_the_size_tuple_budget_exits_2(mode, tmp_path, capsys, monkeypatch):
    # a 2D depth-4 weight's scans visit 128 (strong) and 64 (rectangle)
    # size tuples; with a smaller budget the CLI refuses before scanning
    from dyadlab import lattice

    path, _ = _gen(tmp_path, "w.wgt", dim=2, depth=4)
    monkeypatch.setattr(lattice, "SCAN_BUDGET_TUPLES", 63)
    assert main(["compute", "doubling", "--weight", str(path), "--mode", mode]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "size tuples, limit 63" in err


def test_compute_onethird_over_the_array_budget_exits_2(tmp_path, capsys, monkeypatch):
    # the one-third scan sizes its largest array before building any;
    # past a smaller budget the CLI refuses with exit 2, no traceback
    from dyadlab import lattice

    sig_path, _ = _gen(tmp_path, "sig.wgt", seed=3)
    om_path, _ = _gen(tmp_path, "om.wgt", seed=4)
    monkeypatch.setattr(lattice, "ARRAY_BUDGET_BYTES", 4096)
    args = ["compute", "characteristic", "--kind", "no_bump", "--family", "onethird",
            "--sigma", str(sig_path), "--omega", str(om_path), "--p", "2", "--q", "4"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "limit 4096 bytes" in err
    monkeypatch.setattr(lattice, "ARRAY_BUDGET_BYTES", 1 << 30)
    assert main(args) == 0


def test_compute_doubling_csv_parses(tmp_path, capsys):
    path, _ = _gen(tmp_path, "w.wgt", dim=2, depth=4)
    code = main(["compute", "doubling", "--weight", str(path), "--mode", "product_reverse"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows)
    fields = dict(rows[1:])
    assert fields["rev_eps"].startswith("[") and fields["mode"] == "product_reverse"
    rep = doubling_report(read_weight(path), "product_reverse")
    assert sorted(rep.witnesses) == ["reverse_axis_0", "reverse_axis_1", "reverse_cube"]
    for name, wit in rep.witnesses.items():
        for key, val in _witness_row(wit).items():
            assert fields[f"witness/{name}/{key}"] == str(val)
    assert fields["witness/reverse_cube/kind"] == "shrink"


# ---------------------------------------------------------------------------
# norm-estimate


def test_norm_estimate_trace_file(tmp_path, capsys):
    sig_path, sig = _gen(tmp_path, "sig.wgt", depth=3, seed=6)
    om_path, om = _gen(tmp_path, "om.wgt", depth=3, seed=7)
    trace = tmp_path / "trace.csv"
    code = main(
        [
            "norm-estimate",
            "--sigma",
            str(sig_path),
            "--omega",
            str(om_path),
            "--iterations",
            "3",
            "--seed",
            "2",
            "--out",
            str(trace),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,objective,seed"
    assert lines[-1].startswith("lower_bound,")
    lower = float(lines[-1].split(",")[1])
    exps = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5)
    floor = characteristic("no_bump", None, sig, om, exps, family="dyadic").value
    assert lower >= floor
    objectives = [float(l.split(",")[1]) for l in lines[1:-1]]
    assert max(objectives) <= lower


def test_norm_estimate_json(tmp_path, capsys):
    sig_path, _ = _gen(tmp_path, "sig.wgt", depth=3, seed=6)
    om_path, _ = _gen(tmp_path, "om.wgt", depth=3, seed=7)
    args = ["norm-estimate", "--sigma", str(sig_path), "--omega", str(om_path)]
    assert main(args + ["--iterations", "3", "--seed", "2", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert main(args + ["--iterations", "3", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert report["lower_bound"] == float(lines[-1].split(",")[1])
    assert [row["objective"] for row in report["trace"]] == [
        float(l.split(",")[1]) for l in lines[1:-1]
    ]


def test_norm_estimate_past_the_iteration_limit_exits_2(tmp_path, capsys, monkeypatch):
    from dyadlab import cli, forms, lattice

    sig_path, _ = _gen(tmp_path, "sig.wgt", depth=3, seed=6)
    om_path, _ = _gen(tmp_path, "om.wgt", depth=3, seed=7)
    args = ["norm-estimate", "--sigma", str(sig_path), "--omega", str(om_path)]
    # the default runs on every lattice: the limit does not depend on it
    assert cli._build_parser().parse_args(args).iterations <= lattice.NORM_BUDGET_ITERATIONS
    limit = lattice.NORM_BUDGET_ITERATIONS
    assert main(args + ["--iterations", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"{limit + 1} iterations pass the limit of {limit}" in captured.err
    monkeypatch.setattr(forms, "NORM_BUDGET_ITERATIONS", 2)
    assert main(args + ["--iterations", "3"]) == 2
    assert main(args + ["--iterations", "2"]) == 0
    capsys.readouterr()


def test_norm_estimate_rejects_negative_iterations(tmp_path, capsys):
    sig_path, _ = _gen(tmp_path, "sig.wgt", depth=3, seed=6)
    om_path, _ = _gen(tmp_path, "om.wgt", depth=3, seed=7)
    args = ["norm-estimate", "--sigma", str(sig_path), "--omega", str(om_path)]
    assert main(args + ["--iterations", "-1"]) == 2
    captured = capsys.readouterr()
    assert "iterations" in captured.err
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    args = ["verify", "--depth", "8", "--depth2d", "4", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_rejects_corrupt_weight_at_load(tmp_path, capsys):
    bad = tmp_path / "bad.wgt"
    bad.write_text("WGT1 d=1 L=2\n1.0 2.0 -1.0 1.0\n")
    assert main(["verify", "--weight", str(bad)]) == 2
    capsys.readouterr()


def test_verify_json_format(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--depth", "8", "--depth2d", "3", "--out", str(out), "--format", "json"]) == 0
    import json

    rows = json.loads(out.read_text())
    assert all(row["pass"] for row in rows)


# ---------------------------------------------------------------------------
# grid-sample


def test_grid_sample_roundtrip(capsys):
    code = main(["grid-sample", "--dim", "1", "--lo", "0", "--hi", "6", "--count", "3", "--seed", "11"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        grid = parse_grid(line)
        assert grid.descriptor() == line


def test_grid_sample_json_lists_the_csv_descriptors(tmp_path, capsys):
    args = ["grid-sample", "--dim", "2", "--hi", "6", "--count", "4", "--seed", "3"]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    out = tmp_path / "grids.json"
    assert main(args + ["--format", "json", "--out", str(out)]) == 0
    descriptors = json.loads(out.read_text())
    assert descriptors == lines and len(lines) == 4
    assert all(parse_grid(d).descriptor() == d for d in descriptors)


@pytest.mark.parametrize(
    "header, compute_code",
    [("WGT1 d=9 L=1", 3), ("WGT1 d=1 L=-2", 3), ("WGT1 d=0 L=3", 3), ("WGT1 d=4 L=7", 2)],
)
def test_bad_weight_headers_exit_codes(tmp_path, capsys, header, compute_code):
    # a malformed file is an I/O error for compute and a configuration
    # error for verify; an over-budget header is a budget error for both
    bad = tmp_path / "bad.wgt"
    bad.write_text(header + "\n1 1\n")
    assert main(["compute", "bump", "--weight", str(bad), "--theta", "2"]) == compute_code
    assert main(["verify", "--weight", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# python -m dyadlab


def test_module_entry_point_runs_the_cli(tmp_path):
    # a checkout without an install runs the same CLI from its src/ directory
    import dyadlab

    src = str(Path(dyadlab.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = tmp_path / "r.json"
    args = ["verify", "--depth", "8", "--depth2d", "3", "--format", "json", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "dyadlab", *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert main(args[:-1] + [str(tmp_path / "direct.json")]) == 0
    assert out.read_bytes() == (tmp_path / "direct.json").read_bytes()
    bad = subprocess.run(
        [sys.executable, "-m", "dyadlab", "verify", "--depth", "-3"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert bad.returncode == 2
    assert "Traceback" not in bad.stderr
