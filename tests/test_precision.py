"""The precision policy against exact formulas.

The package has one arithmetic: every power over an array runs in
float64 on masses rounded once, and every sum is a compensated float64
sum, so no number depends on the platform's long double.  The oracles
below take every power in decimal at 34 digits and every sum exactly
(math.fsum, or decimal at that precision).  The float64 maps may differ
from them by the error of rounding an exponent such as 1/theta to
float64, which grows with the logarithm of the base, so agreement is
required within 2^-50 * (1 + |ln mass| + |ln vol|).

bump_cube sums a single box from its own cells; its oracle takes the
box's mass as the math.fsum of the same float64 cells, on boxes anchored
at the origin, and applies the decimal bump map.  At theta = 1 the bump
keeps the bits of its mass.  lp_norm is checked end to end against the
decimal sum; its terms leave float64's range there (1e75^4 * 1e75), and
the norm must stay finite.  The embedding and Carleson sums run over
every dyadic subcube, whose masses the code reads from the dyadic
pyramid; the oracle reads them from the same pyramid, since accumulation
of masses is not what the policy changes, and applies the decimal maps.
Densities span 1e-75..1e75 and exponents stay at most 4.
"""
import inspect
import math
import re
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadlab import GridFunction, KernelHandle, Rect, Weight, bump_cube, integrate, make_lattice
from dyadlab.embed import automatic_carleson, embed_check_cubes
from dyadlab import lattice
from dyadlab.lattice import full_rect, lp_norm

def _fsum_mass(w: Weight, theta: float, box: Rect) -> float:
    """The box's mass, the math.fsum of its float64 cells density**theta
    * cell_volume."""
    cells = lattice._cellwise(w.lattice, w.density, theta)[tuple(map(slice, box.lo, box.hi))]
    return math.fsum(cells.ravel().tolist())


def _decimal(fn):
    """fn run in a decimal context of 34 digits."""

    def run(*args):
        with localcontext() as ctx:
            ctx.prec = 34
            return fn(*args)

    return run


@_decimal
def _bump(mass: float, theta: float, vol: float) -> Decimal:
    """vol^(1 - 1/theta) * mass^(1/theta), theta as given."""
    inv = 1 / Decimal(theta)
    return Decimal(vol) ** (1 - inv) * Decimal(mass) ** inv


@_decimal
def _exact_lp_norm(f: GridFunction, w: Weight, p: float) -> float:
    """(sum f^p * density * cell_volume)^(1/p), f^p in decimal."""
    pw = Decimal(p)
    terms = (Decimal(a) ** pw * Decimal(b) for a, b in zip(f.values.ravel().tolist(), w.density.ravel().tolist()))
    total = sum(terms, Decimal(0)) * Decimal(w.lattice.cell_volume)
    return float(total ** (1 / pw))


def _pyramid(lat, cells):
    """(volume, masses) of every level's dyadic cubes, from the pyramid
    the code reads."""
    for (level,), masses in lattice._level_masses(cells, lat):
        yield 2.0 ** (-level * lat.dim), masses


def _log_span(masses, vol) -> float:
    """Largest |ln mass| + |ln vol| over the positive masses."""
    pos = np.asarray(masses, dtype=np.float64)
    pos = pos[pos > 0.0]
    return float(np.abs(np.log(pos)).max()) + abs(math.log(vol)) if pos.size else 0.0


@_decimal
def _exact_embed_lhs(f, w, theta, r, s) -> tuple[float, float]:
    """embed_check_cubes' lhs, the sum of mf^r * b^(r/s - r) over the
    cubes of positive bump, in decimal, and the log span of the masses it
    read."""
    lat = w.lattice
    levels = zip(
        _pyramid(lat, lattice._cellwise(lat, w.density, theta)),
        _pyramid(lat, f.values * w.density * lat.cell_volume),
    )
    total, span = Decimal(0), 0.0
    rd, sd = Decimal(r), Decimal(s)
    for (vol, masses), (_, mf) in levels:
        pos = masses > 0.0
        for mass, fm in zip(masses[pos].tolist(), mf[pos].tolist()):
            total += Decimal(fm) ** rd * _bump(mass, theta, vol) ** (rd / sd - rd)
        span = max(span, _log_span(masses, vol), _log_span(mf[pos], vol))
    return float(total ** (1 / rd)), span


@_decimal
def _exact_carleson_lhs(w, theta, rho) -> tuple[float, float]:
    """automatic_carleson's lhs over the whole box, the sum of b^rho in
    decimal."""
    lat = w.lattice
    total, span = Decimal(0), 0.0
    for vol, masses in _pyramid(lat, lattice._cellwise(lat, w.density, theta)):
        for mass in masses.ravel().tolist():
            total += _bump(mass, theta, vol) ** Decimal(rho)
        span = max(span, _log_span(masses, vol))
    return float(total), span


def _close(got: float, want: float, log_span: float) -> bool:
    return abs(got - want) <= 2.0**-50 * (1.0 + log_span) * abs(want)


def _lattice_logs(draw, lat, lo, hi) -> np.ndarray:
    """Cell values log-uniform in [10^lo, 10^hi]."""
    n = lat.cell_count
    return 10.0 ** np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))


@st.composite
def _weights(draw):
    lat = make_lattice(draw(st.integers(1, 2)), draw(st.integers(0, 4)))
    return Weight(lat, _lattice_logs(draw, lat, -75.0, 75.0))


@st.composite
def _embed_cases(draw):
    w = draw(_weights())
    r = draw(st.floats(1.25, 4.0))
    s = draw(st.floats(1.1, r - 0.1))
    f = GridFunction(w.lattice, _lattice_logs(draw, w.lattice, -2.0, 2.0))
    return w, f, draw(st.floats(1.0, 3.0, exclude_min=True)), r, s


# every mass near 1e-77: the split form mf^r * b^(r/s - r) underflows here
_TINY = Weight(make_lattice(2, 2), np.full(16, 1e-75))
_TINY_CASE = (_TINY, GridFunction(_TINY.lattice, np.ones(16)), 3.0, 4.0, 1.1)


@settings(max_examples=200, deadline=None)
@given(_weights(), st.floats(1.0, 3.0), st.data())
def test_bump_cube_matches_fsum_oracle(w, theta, data):
    lat = w.lattice
    hi = tuple(data.draw(st.integers(1, lat.cells_per_axis)) for _ in range(lat.dim))
    box = Rect((0,) * lat.dim, hi)
    vol = box.cells * lat.cell_volume
    mass = _fsum_mass(w, theta, box)
    want = float(_bump(mass, theta, vol))
    assert _close(bump_cube(box, w, theta), want, abs(math.log(mass)) + abs(math.log(vol)))


@settings(max_examples=100, deadline=None)
@given(_weights(), st.data())
def test_theta_one_bumps_keep_the_former_bits(w, data):
    lat = w.lattice
    cut = st.lists(st.integers(0, lat.cells_per_axis), min_size=2, max_size=2)
    edges = [sorted(data.draw(cut)) for _ in range(lat.dim)]
    box = Rect(tuple(e[0] for e in edges), tuple(e[1] for e in edges))
    got = bump_cube(box, w, 1.0)
    # the map keeps the mass's bits, and the mass is its cells' sum to
    # within an ulp
    assert got == integrate(w, box)
    want = _fsum_mass(w, 1.0, box)
    assert abs(got - want) <= np.spacing(want)


@settings(max_examples=200, deadline=None)
@given(_weights(), st.floats(1.0, 4.0), st.data())
def test_lp_norm_matches_decimal_oracle(w, p, data):
    f = GridFunction(w.lattice, _lattice_logs(data.draw, w.lattice, -75.0, 75.0))
    want = _exact_lp_norm(f, w, p)
    got = lp_norm(f, w, p)
    assert math.isfinite(got)
    assert _close(got, want, abs(math.log(want)) * p)


@pytest.mark.parametrize("p", [1.0, 2.5, 4.0])
@pytest.mark.parametrize("f_exp, w_exp", [(75, 75), (-75, -75), (75, -75), (-75, 75)])
def test_lp_norms_stay_finite_at_the_extreme_densities(f_exp, w_exp, p):
    # f^p * density leaves float64's range at 1e75^4 * 1e75 and 1e-75^4 *
    # 1e-75; the norm is rescaled by exact powers of two and stays finite
    lat = make_lattice(2, 2)
    f = GridFunction(lat, np.full(lat.shape, 10.0**f_exp))
    w = Weight(lat, np.full(lat.shape, 10.0**w_exp))
    want = _exact_lp_norm(f, w, p)
    got = lp_norm(f, w, p)
    assert 0.0 < got < math.inf
    assert _close(got, want, abs(math.log(want)) * p)
    batch = lattice._lp_norms(lat, np.stack([f.values, np.ones(lat.shape)]), w.density, p)
    assert batch[0] == got and batch[1] == lp_norm(GridFunction(lat, np.ones(lat.shape)), w, p)


@settings(max_examples=200, deadline=None)
@given(_embed_cases())
@example(_TINY_CASE)
def test_embed_cubes_lhs_matches_decimal_oracle(case):
    w, f, theta, r, s = case
    want, span = _exact_embed_lhs(f, w, theta, r, s)
    assert _close(embed_check_cubes(f, w, theta, r, s).lhs, want, span)


# theta or rho within ~1e-16 of 1 makes the explicit constant divide by zero
@settings(max_examples=200, deadline=None)
@given(_weights(), st.floats(1.01, 3.0), st.floats(1.01, 4.0))
def test_automatic_carleson_lhs_matches_decimal_oracle(w, theta, rho):
    want, span = _exact_carleson_lhs(w, theta, rho)
    got = automatic_carleson(full_rect(w.lattice), w, theta, rho).lhs_sum
    assert _close(got, want, span)


def test_drift_dump_compare_exit_status(tmp_path):
    # same bits exit 0; a moved number (even 0.0 -> -0.0) or text field exits 1
    import importlib.util
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "drift_dump.py"
    spec = importlib.util.spec_from_file_location("drift_dump", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    base = {"a/lhs": 0.1, "a/zero": 0.0, "a/trace": [1.0, 2.0], "a/witness": "Q"}
    cases = {
        "same": ({}, 0),
        "number": ({"a/lhs": 0.1 * (1 + 2**-52)}, 1),
        "zero_sign": ({"a/zero": -0.0}, 1),
        "list_entry": ({"a/trace": [1.0, 2.0000000000000004]}, 1),
        "text": ({"a/witness": "R"}, 1),
        "missing": ({"a/extra": 1.0}, 1),
    }
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"values": base}))
    for name, (change, code) in cases.items():
        new = tmp_path / f"{name}.json"
        new.write_text(json.dumps({"values": {**base, **change}}))
        assert tool.main(["--compare", str(old), str(new)]) == code, name


def test_src_uses_no_long_double():
    # one arithmetic: no module of the package names np.longdouble
    src = Path(__file__).resolve().parent.parent / "src"
    for path in sorted(src.rglob("*.py")):
        assert "longdouble" not in path.read_text(), path.name


def test_src_checks_integers_by_one_rule():
    # one integer rule, lattice._check_int: no module tests integer-ness
    # with isinstance(..., int), and KernelHandle casts no dimension
    src = Path(__file__).resolve().parent.parent / "src"
    for path in sorted(src.rglob("*.py")):
        assert not re.search(r"isinstance\([^()]*\bint\b", path.read_text()), path.name
    kernel = inspect.getsource(KernelHandle)
    assert not re.search(r"\bint\(\s*[mn]\s*\)", kernel)
