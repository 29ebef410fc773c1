"""Every numeric flag of every subcommand and compute quantity, fuzzed.

The flags are read from the parser itself, so a new numeric flag is
fuzzed without a change here.  Values are NaN, infinities, huge,
negative, zero and non-integral numbers as well as small integers.  The
oracle is the exit-code contract: 0, 2 (configuration) or 3 (I/O), and
never a traceback.  The cell, grid-verification and iteration budgets
are set small so that every run stays cheap.
"""

import argparse

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadlab import cli, forms, gen_weight, grids, lattice, make_lattice
from dyadlab.weightio import write_weight

_SPECIAL = [
    "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e400", str(2**64), str(-(2**64)),
    "-1", "-3", "0", "-0.0", "0.5", "2.5", "1e-320", "1.0000000000000002",
]
_VALUES = st.one_of(
    st.sampled_from(_SPECIAL),
    st.integers(-3, 30).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_NUMERIC = (int, float, cli._depth)


def _commands() -> dict:
    """Command words -> their parser, for every subcommand and quantity."""
    found = {}

    def walk(words, parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            found[tuple(words)] = parser
        for action in subs:
            for name, child in action.choices.items():
                walk(words + [name], child)

    walk([], cli._build_parser())
    return found


def _numeric_flags(parser) -> list:
    return [a.option_strings[0] for a in parser._actions if a.type in _NUMERIC]


_COMMANDS = _commands()
_FUZZED = sorted(words for words, parser in _COMMANDS.items() if _numeric_flags(parser))

# the required flags of each command, other than the fuzzed numbers
_BASE = {
    ("gen-weight",): ["--kind", "{kind}", "--out", "{out}"],
    ("compute", "characteristic"): ["--sigma", "{sigma}", "--omega", "{omega}"],
    ("compute", "bump"): ["--weight", "{sigma}"],
    ("norm-estimate",): ["--sigma", "{sigma}", "--omega", "{omega}"],
    ("verify",): [],
    ("grid-sample",): [],
}


def test_every_command_with_a_numeric_flag_is_fuzzed():
    # compute doubling alone takes no number
    assert sorted(_BASE) == _FUZZED == sorted(set(_COMMANDS) - {("compute", "doubling")})


@pytest.fixture(scope="module")
def weights(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    pairs = []
    for dim, depth in [(1, 4), (2, 3)]:
        lat = make_lattice(dim, depth)
        pair = [str(tmp / f"{name}{dim}.wgt") for name in ("sigma", "omega")]
        for seed, path in enumerate(pair):
            write_weight(path, gen_weight(lat, {"kind": "random_lognormal", "seed": seed}))
        pairs.append(pair)
    return str(tmp / "out.wgt"), pairs


@pytest.fixture
def small_budgets(monkeypatch):
    monkeypatch.setattr(lattice, "CELL_BUDGET_LOG2", 8)
    monkeypatch.setattr(grids, "VERIFY_BUDGET", 1 << 10)
    monkeypatch.setattr(forms, "NORM_BUDGET_ITERATIONS", 4)


@pytest.mark.parametrize("words", _FUZZED, ids=" ".join)
# the budgets and capsys hold for every example; each run reads its output
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_numeric_flags_keep_the_exit_code_contract(words, data, weights, small_budgets, capsys):
    out, pairs = weights
    sigma, omega = data.draw(st.sampled_from(pairs))
    kind = data.draw(st.sampled_from(sorted(lattice.WEIGHT_FIELDS)))
    fill = {"kind": kind, "out": out, "sigma": sigma, "omega": omega}
    argv = list(words) + [a.format(**fill) for a in _BASE[words]]
    flags = _numeric_flags(_COMMANDS[words])
    for flag in data.draw(st.lists(st.sampled_from(flags), unique=True, min_size=1)):
        argv += [flag, data.draw(_VALUES)]
    capsys.readouterr()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3), (argv, captured.err)
    assert "Traceback" not in captured.out + captured.err
