"""One rule per input kind, across the public entries.

Every integer parameter (a dimension, a level, a refinement depth, a
stream path, a sandwich's j, a cube's level and index, a probe or grid
count, a third offset, a shift bit) passes lattice._check_int: an Integral that is not a bool, numpy
integers included.  Each row below names one such parameter of one entry
with a valid value; the entry must refuse that value as a bool, as a
fractional float and as an integral float with DomainError (never a
TypeError, a ValueError or a silent truncation), and take it as a numpy
integer with a result identical, types included, to the Python int's.
A refusal names the value it refuses, not one derived from it.
The other tables hold the non-integer rules: cell arrays, level ranges,
split probabilities and the shape errors that stay shape errors.
"""
import dataclasses
import math
import re

import numpy as np
import pytest

from dyadlab import (
    BoxCube,
    Cube,
    DyadicGrid,
    DyadicRect,
    Exponents,
    GoodnessParams,
    GridFunction,
    KernelHandle,
    ShiftParam,
    Weight,
    apply_frac_integral,
    characteristic_at,
    dyadic_family,
    embed_check_rects,
    family_of,
    gen_weight,
    good_in,
    is_good,
    make_lattice,
    onethird_grids,
    random_partition,
    refine_function,
    refine_weight,
    sample_grid,
    sample_shift,
    sandwich,
    sandwiches,
    standard_grid,
    substream,
    verify_grid,
)
from dyadlab.errors import DomainError, ShapeError
from dyadlab.grids import verify_work

LAT1 = make_lattice(1, 3)
LAT2 = make_lattice(2, 2)
W1 = gen_weight(LAT1, {"kind": "cascade", "beta": 0.7, "seed": 1})
W2 = gen_weight(LAT2, {"kind": "cascade", "beta": 0.7, "seed": 2})
F1 = GridFunction(LAT1, np.arange(1.0, 9.0))
F2 = GridFunction(LAT2, np.arange(1.0, 17.0))
EXPS = Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, m=1, n=1)
STD8 = standard_grid(1, 0, 8)
THIRDS = onethird_grids(1, 0, 10)


def _witness(level=1, index=1):
    return DyadicRect(Cube(THIRDS[1], level, (index,)), Cube(standard_grid(1, 0, 2), 1, (0,)))


def _std_rect(level=1, index=1):
    return DyadicRect(Cube(standard_grid(1, 0, 2), level, (index,)), Cube(standard_grid(1, 0, 2), 1, (0,)))


# (entry.parameter, a valid integer value, the call with that parameter set)
INTEGER_ROWS = [
    ("make_lattice.dim", 2, lambda v: make_lattice(v, 3)),
    ("make_lattice.depth", 3, lambda v: make_lattice(2, v)),
    ("KernelHandle.product_frac.m", 1, lambda v: KernelHandle.product_frac(0.5, 0.5, v, 1)),
    ("KernelHandle.product_frac.n", 1, lambda v: KernelHandle.product_frac(0.5, 0.5, 1, v)),
    ("KernelHandle.from_table.m", 1, lambda v: KernelHandle.from_table({(0, 0): 1.0}, v, 1)),
    ("KernelHandle.from_table.n", 1, lambda v: KernelHandle.from_table({(0, 0): 1.0}, 1, v)),
    ("substream.path", 1, lambda v: substream(0, 303, v)),
    ("sample_shift.axis", 1, lambda v: sample_shift(0, 0, 6, axis=v)),
    ("sample_shift.lo", 0, lambda v: sample_shift(0, v, 6)),
    ("sample_shift.hi", 6, lambda v: sample_shift(0, 0, v)),
    ("sample_grid.dim", 2, lambda v: sample_grid(1, v, 0, 4)),
    ("onethird_grids.dim", 2, lambda v: onethird_grids(v, 0, 3)),
    ("DyadicGrid.dim", 2, lambda v: DyadicGrid(v, 0, 3, "std")),
    ("DyadicGrid.lo", 0, lambda v: DyadicGrid(1, v, 3, "std")),
    ("DyadicGrid.hi", 3, lambda v: DyadicGrid(1, 0, v, "std")),
    ("standard_grid.lo", 0, lambda v: standard_grid(1, v, 3)),
    ("standard_grid.hi", 3, lambda v: standard_grid(1, 0, v)),
    ("ShiftParam.lo", 0, lambda v: ShiftParam(v, 2, (0, 1))),
    ("ShiftParam.hi", 2, lambda v: ShiftParam(0, v, (0, 1))),
    ("ShiftParam.bits", 1, lambda v: ShiftParam(0, 2, (v, 0))),
    ("DyadicGrid.third", 1, lambda v: DyadicGrid(1, 0, 3, "third", third=(v,))),
    ("Exponents.m", 1, lambda v: Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, m=v, n=1)),
    ("Exponents.n", 1, lambda v: Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, m=1, n=v)),
    ("refine_weight.extra", 1, lambda v: refine_weight(W1, v)),
    ("refine_function.extra", 1, lambda v: refine_function(F1, v)),
    ("apply_frac_integral.m", 1, lambda v: apply_frac_integral(F2, 0.5, 0.5, v, 1)),
    ("apply_frac_integral.n", 1, lambda v: apply_frac_integral(F2, 0.5, 0.5, 1, v)),
    ("embed_check_rects.m", 1, lambda v: embed_check_rects(F2, W2, theta=2.0, r=4.0, s=2.0, m=v)),
    ("dyadic_family.m", 1, lambda v: dyadic_family(LAT2, v)),
    ("family_of.level", 1, lambda v: family_of(LAT2, [_std_rect(level=v)])),
    ("family_of.index", 1, lambda v: family_of(LAT2, [_std_rect(index=v)])),
    ("sandwich.j", 1, lambda v: sandwich(BoxCube((0.3,), 0.01), v, THIRDS)),
    ("sandwiches.j", 1, lambda v: sandwiches([[0.3], [0.71]], [0.01, 0.002], v, THIRDS)),
    ("characteristic_at.level", 1, lambda v: characteristic_at("no_bump", None, _witness(level=v), W2, W2, EXPS)),
    ("characteristic_at.index", 1, lambda v: characteristic_at("no_bump", None, _witness(index=v), W2, W2, EXPS)),
    ("is_good.level", 4, lambda v: is_good(Cube(STD8, v, (5,)), GoodnessParams(0.25, 2))),
    ("is_good.index", 5, lambda v: is_good(Cube(STD8, 4, (v,)), GoodnessParams(0.25, 2))),
    ("good_in.cube_level", 4, lambda v: good_in(Cube(STD8, v, (5,)), Cube(STD8, 1, (0,)), 0.25)),
    ("good_in.cube_index", 5, lambda v: good_in(Cube(STD8, 4, (v,)), Cube(STD8, 1, (0,)), 0.25)),
    ("good_in.anc_level", 1, lambda v: good_in(Cube(STD8, 4, (5,)), Cube(STD8, v, (0,)), 0.25)),
    ("good_in.anc_index", 1, lambda v: good_in(Cube(STD8, 4, (13,)), Cube(STD8, 1, (v,)), 0.25)),
    ("verify_grid.probes", 8, lambda v: verify_grid(sample_grid(3, 2, 0, 4), probes=v)),
    ("verify_work.count", 1, lambda v: verify_work(v, 1, 0, 4)),
    ("verify_work.dim", 1, lambda v: verify_work(1, v, 0, 4)),
    ("verify_work.lo", 0, lambda v: verify_work(1, 1, v, 4)),
    ("verify_work.hi", 4, lambda v: verify_work(1, 1, 0, v)),
]

BAD_KINDS = {
    "bool": lambda good: True,
    "fractional": lambda good: good + 0.5,
    "integral_float": lambda good: float(good),
}


def _same(a, b) -> bool:
    """Equal values of identical types, arrays bit for bit and streams by
    their next draws."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.random.Generator):
        return _same(a.random(4), b.random(4))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (Weight, GridFunction)):
        return _same(a.lattice, b.lattice) and _same(*(x.density if isinstance(x, Weight) else x.values for x in (a, b)))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return repr(a) == repr(b)


@pytest.mark.parametrize("kind", sorted(BAD_KINDS))
@pytest.mark.parametrize("name, good, call", INTEGER_ROWS, ids=[r[0] for r in INTEGER_ROWS])
def test_integer_parameter_refuses_a_non_integer(name, good, call, kind):
    call(good)
    bad = BAD_KINDS[kind](good)
    with pytest.raises(DomainError, match=re.escape(f"got {bad!r}")):
        call(bad)


@pytest.mark.parametrize("name, good, call", INTEGER_ROWS, ids=[r[0] for r in INTEGER_ROWS])
def test_integer_parameter_takes_a_numpy_integer_as_the_int(name, good, call):
    assert _same(call(np.int64(good)), call(good))
    assert _same(call(np.int32(good)), call(good))


# (case, the call) that must raise DomainError
DOMAIN_ROWS = [
    ("substream.negative_path", lambda: substream(0, -1)),
    ("sample_shift.inverted", lambda: sample_shift(0, 4, 2)),
    ("DyadicGrid.inverted", lambda: DyadicGrid(1, 3, 1, "std")),
    ("ShiftParam.inverted", lambda: ShiftParam(2, 0, ())),
    ("DyadicGrid.dim_past_max", lambda: DyadicGrid(7, 0, 3, "std")),
    ("DyadicGrid.dim_zero", lambda: DyadicGrid(0, 0, 3, "std")),
    ("Exponents.m_past_max", lambda: Exponents(p=2.0, q=4.0, alpha=0.5, beta=0.5, m=5, n=1)),
    ("verify_grid.no_probes", lambda: verify_grid(standard_grid(1, 0, 3), probes=0)),
    ("verify_grid.negative_probes", lambda: verify_grid(standard_grid(1, 0, 3), probes=-3)),
    ("refine_weight.negative", lambda: refine_weight(W1, -1)),
    ("Weight.text", lambda: Weight(make_lattice(1, 1), ["a", "b"])),
    ("Weight.complex", lambda: Weight(make_lattice(1, 1), [1 + 1j, 2.0])),
    ("Weight.complex_array", lambda: Weight(make_lattice(1, 1), np.array([1.0, 2.0], dtype=complex))),
    ("Weight.negative", lambda: Weight(make_lattice(1, 1), [1.0, -2.0])),
    ("Weight.nan", lambda: Weight(make_lattice(1, 1), [1.0, math.nan])),
    ("GridFunction.text", lambda: GridFunction(make_lattice(1, 1), ["a", "b"])),
    ("GridFunction.complex", lambda: GridFunction(make_lattice(1, 1), [1 + 1j, 2.0])),
    ("GridFunction.infinite", lambda: GridFunction(make_lattice(1, 1), [1.0, math.inf])),
    ("random_partition.nan", lambda: random_partition(LAT2, 1, math.nan)),
    ("random_partition.above_one", lambda: random_partition(LAT2, 1, 2.0)),
    ("random_partition.below_zero", lambda: random_partition(LAT2, 1, -0.1)),
]


@pytest.mark.parametrize("name, call", DOMAIN_ROWS, ids=[r[0] for r in DOMAIN_ROWS])
def test_bad_value_is_a_domain_error(name, call):
    with pytest.raises(DomainError):
        call()


# valid integers whose shapes do not fit stay shape errors
SHAPE_ROWS = [
    ("Weight.size", lambda: Weight(make_lattice(1, 1), [1.0, 2.0, 3.0])),
    ("GridFunction.size", lambda: GridFunction(make_lattice(2, 1), np.ones(3))),
    ("apply_frac_integral.factors", lambda: apply_frac_integral(F2, 0.5, 0.5, 1, 2)),
    ("embed_check_rects.m", lambda: embed_check_rects(F2, W2, theta=2.0, r=4.0, s=2.0, m=2)),
    ("dyadic_family.m", lambda: dyadic_family(LAT2, 2)),
    ("sandwich.dims", lambda: sandwich(BoxCube((0.3, 0.3), 0.01), 0, THIRDS)),
    ("sandwiches.mixed", lambda: sandwiches([[0.3]], [0.01], 0, [THIRDS[0], standard_grid(2, 0, 4)])),
]


@pytest.mark.parametrize("name, call", SHAPE_ROWS, ids=[r[0] for r in SHAPE_ROWS])
def test_shape_mismatch_stays_a_shape_error(name, call):
    with pytest.raises(ShapeError):
        call()


def test_random_partition_takes_zero_and_one():
    # 0 never splits: the whole box; 1 always splits: every finest cell
    assert [(r.lo, r.hi) for r in random_partition(LAT2, 1, 0.0)] == [((0, 0), (4, 4))]
    cells = random_partition(LAT2, 1, 1.0)
    assert len(cells) == LAT2.cell_count and all(r.cells == 1 for r in cells)


def test_cell_arrays_keep_their_values_and_c_order():
    # one cell-array rule: a flat or Fortran-ordered input is the same
    # read-only C-order float64 copy
    lat = make_lattice(2, 1)
    vals = np.array([[1, 2], [3, 4]], order="F")
    for cls in (Weight, GridFunction):
        for given in (vals, vals.ravel().tolist(), vals.astype(np.float32)):
            arr = cls(lat, given).density if cls is Weight else cls(lat, given).values
            assert arr.dtype == np.float64 and arr.flags.c_contiguous and not arr.flags.writeable
            assert arr.tolist() == [[1.0, 2.0], [3.0, 4.0]]
