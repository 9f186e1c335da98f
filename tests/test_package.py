"""The package's public names: ``trapprob.__all__`` and the imports of its
``__init__`` name the same set, and every name resolves; importing the
package loads no test-only dependency; and the public entry points refuse
an argument that is not a finite real number, and a trap that is not a
segment trap record, with a DomainError, meet any odd real scalar (an int
past the double range, a Decimal, a float32 inf, a digit string) with a
value or a TrapProbError, and read a point's coordinates as doubles
(refusing a Decimal coordinate, which is not a numbers.Real)."""

import ast
import inspect
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trapprob
from trapprob import (
    BoundedValue,
    DomainError,
    PlanePoint,
    TrapProbError,
    bessel_i,
    bessel_j0_y0,
    check_theorem1,
    check_theorem2,
    conjecture_probe,
    f_disk,
    figure_series,
    green_segment,
    hunt_approx,
    k0,
    k0_bounds,
    make_segment_trap,
    p_disk,
    phi_segment,
    r_z,
    release_circle,
    sample_batch,
    survival_curve,
    wilson_interval,
)
from trapprob import segment_sim
from trapprob.verify import release_and_sample

SRC = Path(__file__).resolve().parent.parent / "src"


def test_all_names_resolve():
    assert len(set(trapprob.__all__)) == len(trapprob.__all__)
    assert [name for name in trapprob.__all__ if not hasattr(trapprob, name)] == []


def test_every_public_import_is_listed():
    tree = ast.parse(inspect.getsource(trapprob))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(trapprob.__all__)


def test_importing_the_cli_loads_neither_scipy_nor_mpmath():
    # numpy is the only runtime dependency, the J0/Y0 table built at import
    # included; scipy and mpmath give reference values in the tests only
    code = "import sys, trapprob.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


SEGMENT = make_segment_trap(-1.0, 1.0)


NOT_REAL_CALLS = {
    "p_disk r='1'": lambda: p_disk("1", 0.5, 1.0),
    "p_disk t=1j": lambda: p_disk(5.0, 0.5, 1j),
    "p_disk r=10**400": lambda: p_disk(10**400, 0.5, 1.0),
    "p_disk t=[1.0, nan]": lambda: p_disk(5.0, 0.5, [1.0, float("nan")]),
    "p_disk t=array([1.0, inf])": lambda: p_disk(5.0, 0.5, np.array([1.0, np.inf])),
    "p_disk t=('1',)": lambda: p_disk(5.0, 0.5, ("1",)),
    "p_disk t=array([[1.0, 2.0]])": lambda: p_disk(5.0, 0.5, np.array([[1.0, 2.0]])),
    "p_disk t=[1.0, 1j]": lambda: p_disk(5.0, 0.5, [1.0, 1j]),
    "p_disk r=nan t=[]": lambda: p_disk(float("nan"), 0.5, []),
    "p_disk r='1' t=()": lambda: p_disk("1", 0.5, ()),
    "f_disk r=[1.0]": lambda: f_disk([1.0], 0.5, 1.0),
    "hunt_approx r=[1.0]": lambda: hunt_approx([1.0], 0.5, 2.0),
    "check_theorem1 r=array": lambda: check_theorem1(SEGMENT, np.array([5.0, 6.0]), 120.0, 10, 0),
    "check_theorem1 r=[5.0]": lambda: check_theorem1(SEGMENT, [5.0], 120.0, 10, 0),
    "check_theorem1 tau='120'": lambda: check_theorem1(SEGMENT, 5.0, "120", 10, 0),
    "make_segment_trap a='a'": lambda: make_segment_trap("a", 1),
    "make_segment_trap b=10**400": lambda: make_segment_trap(-1.0, 10**400),
    "figure_series radii=['a']": lambda: figure_series(["a"]),
    "figure_series radii=5.0": lambda: figure_series(5.0),
    "bessel_j0_y0 x=['a']": lambda: bessel_j0_y0(["a"]),
    "bessel_j0_y0 x=1j": lambda: bessel_j0_y0(1j),
    "bessel_j0_y0 x=array([1+2j])": lambda: bessel_j0_y0(np.array([1 + 2j])),
    "figure_series radii='15'": lambda: figure_series("15", t_grid=[1.0, 2.0], n=10),
    "figure_series radii=b'15'": lambda: figure_series(b"15", t_grid=[1.0, 2.0], n=10),
    "release_circle r='5'": lambda: release_circle("5", 10, 0),
    "release_and_sample r='5'": lambda: release_and_sample(SEGMENT, "5", 10, 1.0, 0),
    "release_and_sample t_max='1.0'": lambda: release_and_sample(SEGMENT, 5.0, 10, "1.0", 0),
    "sample_batch t_max='1'": lambda: sample_batch(SEGMENT, [PlanePoint(5.0, 0.0)], "1", 0),
    "PlanePoint x='a'": lambda: PlanePoint("a", 0),
    "PlanePoint y=10**400": lambda: PlanePoint(0.0, 10**400),
    # a point's coordinates follow the same rule as every other scalar
    "phi_segment x=nan": lambda: phi_segment(math.nan, 0.5),
    "green_segment y=inf": lambda: green_segment(0.1, math.inf),
    "r_z x='5'": lambda: r_z(SEGMENT, "5", 0.0),
    "check_theorem2 zy=1j": lambda: check_theorem2(SEGMENT, 5.0, 1j, 120.0, 10, 0),
    "phi_segment y=10**400": lambda: phi_segment(0.1, 10**400),
    "green_segment x=-inf": lambda: green_segment(-math.inf, 0.0),
    "check_theorem2 zx=nan": lambda: check_theorem2(SEGMENT, math.nan, 0.0, 120.0, 10, 0),
    "r_z y=10**400": lambda: r_z(SEGMENT, 0.0, 10**400),
    # a numpy float32 inf once passed as finite, being below the largest
    # double cast to float32 (inf itself, with an overflow warning)
    "f_disk r=float32 inf": lambda: f_disk(np.float32("inf"), 0.5, 1.0),
    "hunt_approx t=float32 inf": lambda: hunt_approx(5.0, 0.5, np.float32("inf")),
    "check_theorem2 tau=float32 inf": lambda: check_theorem2(SEGMENT, 5.0, 0.0, np.float32("inf"), 10, 0),
    "p_disk t=float32 inf": lambda: p_disk(5.0, 0.5, np.float32("inf")),
    # digit strings, which a float conversion reads, and complex numbers
    "make_segment_trap a='-1'": lambda: make_segment_trap("-1", "1"),
    "bessel_i x='2'": lambda: bessel_i(0, "2"),
    "bessel_j0_y0 x='2'": lambda: bessel_j0_y0("2"),
    "bessel_j0_y0 x=b'2'": lambda: bessel_j0_y0(b"2"),
    "figure_series radii=['5']": lambda: figure_series(["5"], [1.0, 2.0], n=5),
    "conjecture_probe radii=['5']": lambda: conjecture_probe(SEGMENT, ["5"], [1.0], 5, 0),
    "survival_curve times=['1', '2']": lambda: survival_curve(release_and_sample(SEGMENT, 5.0, 5, 2.0, 0), ["1", "2"]),
    "wilson_interval successes=['1']": lambda: wilson_interval(["1"], 5),
    "wilson_interval successes=1j": lambda: wilson_interval(1j, 5),
    # scalar checks that compared with inf, which an int or a Fraction past
    # the double range passes before a float conversion overflows
    "k0 x=10**400": lambda: k0(10**400),
    "k0_bounds x=10**400": lambda: k0_bounds(10**400, 1),
    "k0 x=Fraction(10**400, 3)": lambda: k0(Fraction(10**400, 3)),
    "BoundedValue value=10**400": lambda: BoundedValue(10**400, 0.1),
    "BoundedValue abs_error_bound=10**400": lambda: BoundedValue(1.0, 10**400),
    "BoundedValue value='1.5'": lambda: BoundedValue("1.5", 0.0),
    "sample_batch t_max=10**400": lambda: sample_batch(SEGMENT, [PlanePoint(1.5, 1.0)], 10**400, 0),
    "release_and_sample t_max=10**400": lambda: release_and_sample(SEGMENT, 2.0, 2, 10**400, 0),
    # records that lack RECORD_DTYPE's fields
    "survival_curve records=[1, 2]": lambda: survival_curve([1, 2], [1.0]),
    "survival_curve records=zeros(3)": lambda: survival_curve(np.zeros(3), [1.0]),
    "survival_curve records=0-d record": lambda: survival_curve(np.zeros((), segment_sim.RECORD_DTYPE), [1.0]),
}


@pytest.mark.parametrize("call", NOT_REAL_CALLS.values(), ids=NOT_REAL_CALLS.keys())
def test_an_argument_that_is_not_a_finite_real_raises_domain_error(call):
    # not the bare TypeError, ValueError or OverflowError of the arithmetic
    # or float conversion that meets it first
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: wilson_interval(["1"] * 200000, 5),
    lambda: bessel_j0_y0([1.0] * 200000 + ["a"]),
], ids=["wilson_interval", "bessel_j0_y0"])
def test_a_long_bad_sequence_gives_a_short_message(call):
    # the message once spelled out every entry: a million characters here
    with pytest.raises(DomainError) as exc:
        call()
    assert len(str(exc.value)) < 200


# the call sites above as functions of their real-scalar argument
SCALAR_SITES = {
    "p_disk r": lambda x: p_disk(x, 0.5, 1.0),
    "p_disk t": lambda x: p_disk(5.0, 0.5, x),
    "p_disk t=[1.0, x]": lambda x: p_disk(5.0, 0.5, [1.0, x]),
    "f_disk r": lambda x: f_disk(x, 0.5, 1.0),
    "hunt_approx t": lambda x: hunt_approx(5.0, 0.5, x),
    "check_theorem1 tau": lambda x: check_theorem1(SEGMENT, 5.0, x, 10, 0),
    "check_theorem2 tau": lambda x: check_theorem2(SEGMENT, 5.0, 0.0, x, 10, 0),
    "check_theorem2 zx": lambda x: check_theorem2(SEGMENT, x, 0.5, 120.0, 10, 0),
    "make_segment_trap b": lambda x: make_segment_trap(-1.0, x),
    "figure_series radii=[x]": lambda x: figure_series([x], [1.0, 2.0], n=5),
    "conjecture_probe radii=[x]": lambda x: conjecture_probe(SEGMENT, [x], [1.0], 5, 0),
    "bessel_i x": lambda x: bessel_i(0, x),
    "bessel_j0_y0 x": bessel_j0_y0,
    "release_circle r": lambda x: release_circle(x, 10, 0),
    "release_and_sample r": lambda x: release_and_sample(SEGMENT, x, 10, 1.0, 0),
    "release_and_sample t_max": lambda x: release_and_sample(SEGMENT, 5.0, 10, x, 0),
    "sample_batch t_max": lambda x: sample_batch(SEGMENT, [PlanePoint(1.5, 1.0)], x, 0),
    "PlanePoint x": lambda x: PlanePoint(x, 0.0),
    "phi_segment x": lambda x: phi_segment(x, 0.5),
    "green_segment x": lambda x: green_segment(x, 0.5),
    "green_segment y": lambda x: green_segment(0.1, x),
    "r_z x": lambda x: r_z(SEGMENT, x, 3.0),
    "survival_curve times=[x]": lambda x: survival_curve(release_and_sample(SEGMENT, 5.0, 5, 2.0, 0), [x]),
    "wilson_interval successes": lambda x: wilson_interval(x, 5),
    "k0 x": k0,
    "k0_bounds x": lambda x: k0_bounds(x, 1),
    "BoundedValue value": lambda x: BoundedValue(x, 0.1),
    "BoundedValue abs_error_bound": lambda x: BoundedValue(1.0, x),
}
PAST_DOUBLE = st.integers(int(sys.float_info.max) + 1, 10**400)
# reals that a plain float argument never is: ints and Fractions past the
# double range, Decimals (NaN, sNaN, infinities and huge exponents
# included), numpy float16/float32 infinities and NaN, and digit strings
ODD_SCALARS = st.one_of(
    PAST_DOUBLE,
    PAST_DOUBLE.map(lambda n: -n),
    st.builds(Fraction, st.integers(10**315, 10**400), st.integers(1, 10**6)),
    st.decimals(),
    st.sampled_from([np.float16("inf"), np.float32("inf"), np.float16("-inf"), np.float32("-inf"), np.float32("nan")]),
    st.from_regex(r"\A-?[0-9]{1,4}(\.[0-9]{1,3})?\Z"),
    st.from_regex(rb"\A[0-9]{1,4}\Z"),
)


@pytest.mark.parametrize("call", SCALAR_SITES.values(), ids=SCALAR_SITES.keys())
@settings(max_examples=60, deadline=None)
@given(ODD_SCALARS)
@example(Decimal("sNaN"))
@example(10**400)
def test_an_odd_real_scalar_gives_a_value_or_a_trapprob_error(call, x):
    # an uncapped walk (t_max = float32 inf) from far away can take very
    # many steps; at the lowered cap it ends in a ConvergenceError
    with mock.patch.object(segment_sim, "STEP_CAP", 300):
        try:
            call(x)
        except TrapProbError:
            pass


# each call with the argument it takes, a value that float16 and float32
# round (neither holds 5.3 or 120.3), so arithmetic in either type would
# round differently from the double's
SMALL_FLOAT_CALLS = {
    "f_disk r": (lambda x: f_disk(x, 0.5, 1.0), 5.3),
    "p_disk t": (lambda x: p_disk(5.0, 0.5, x), 5.3),
    "p_disk r and curve t": (lambda x: p_disk(x, 0.5, [x, 60.0]).tolist(), 5.3),
    "hunt_approx r": (lambda x: hunt_approx(x, 0.5, 100.0, "tau0"), 5.3),
    "check_theorem1 r": (lambda x: check_theorem1(SEGMENT, x, 120.0, 10, 0), 5.3),
    "check_theorem2 tau": (lambda x: check_theorem2(SEGMENT, 5.0, 0.0, x, 10, 0), 120.3),
    "release_circle r": (lambda x: release_circle(x, 10, 0), 5.3),
}
# the readers of a point's coordinates
POINT_CALLS = {
    "phi_segment x": (lambda x: phi_segment(x, 0.5), 0.1),
    "green_segment x": (lambda x: green_segment(x, 0.5), 0.1),
    "r_z x": (lambda x: r_z(SEGMENT, x, 3.0), 0.1),
    "check_theorem2 zx": (lambda x: check_theorem2(SEGMENT, x, 0.5, 120.0, 10, 0), 0.1),
}
SMALL_FLOAT_CALLS.update(POINT_CALLS)


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
@pytest.mark.parametrize("call, value", SMALL_FLOAT_CALLS.values(), ids=SMALL_FLOAT_CALLS.keys())
def test_a_float16_or_float32_argument_gives_the_equal_doubles_result(call, value, dtype):
    # the checks once compared the argument with the largest double cast to
    # its type, which overflows with a RuntimeWarning; the arithmetic ran in
    # the narrow type
    x = dtype(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(x)
    assert got == call(float(x))


@pytest.mark.parametrize("call, value", POINT_CALLS.values(), ids=POINT_CALLS.keys())
def test_a_decimal_coordinate_raises_domain_error(call, value):
    # a Decimal is not a numbers.Real, so a coordinate is refused as every
    # other scalar argument is
    with pytest.raises(DomainError, match="must be finite and real"):
        call(Decimal(repr(value)))


NOT_A_TRAP_CALLS = {
    "check_theorem1 trap=None": lambda: check_theorem1(None, 5.0, 120.0, 10, 0),
    "check_theorem2 trap=(-1, 1)": lambda: check_theorem2((-1, 1), 5.0, 0.0, 120.0, 10, 0),
    "release_and_sample trap='seg'": lambda: release_and_sample("seg", 5.0, 10, 1.0, 0),
    "conjecture_probe trap=None": lambda: conjecture_probe(None, [5.0], [1.0], 10, 0),
    "r_z trap=None": lambda: r_z(None, 5.0, 0.0),
    # an old-style call (starts, t_max, seed, first_index): the start list
    # lands where the trap goes
    "sample_batch trap=[PlanePoint]": lambda: sample_batch([PlanePoint(5.0, 0.0)], 1.0, 0, 0),
}


@pytest.mark.parametrize("call", NOT_A_TRAP_CALLS.values(), ids=NOT_A_TRAP_CALLS.keys())
def test_a_trap_that_is_not_a_trap_record_raises_domain_error(call):
    # not the bare AttributeError of the first trap field read
    with pytest.raises(DomainError, match="trap must be a TrapGeometry"):
        call()


NOT_A_POINT_CALLS = {
    "r_z x=(5, 0)": lambda: r_z(SEGMENT, (5, 0), 0.0),
    "check_theorem2 zx=(5.0, 0.0)": lambda: check_theorem2(SEGMENT, (5.0, 0.0), 0.0, 100.0, 10, 0),
    "green_segment x=(5, 0)": lambda: green_segment((5, 0), 0.0),
    "phi_segment x=PlanePoint(5, 0)": lambda: phi_segment(PlanePoint(5.0, 0.0), 0.0),
    "sample_batch starts=[(5.0, 0.0)]": lambda: sample_batch(SEGMENT, [(5.0, 0.0)], 1.0, 0),
}


@pytest.mark.parametrize("call", NOT_A_POINT_CALLS.values(), ids=NOT_A_POINT_CALLS.keys())
def test_a_point_that_is_not_a_plane_point_raises_domain_error(call):
    # not the bare TypeError or AttributeError of the first coordinate read:
    # a coordinate is a real scalar, and a sampler start is a PlanePoint
    with pytest.raises(DomainError, match="must be finite and real|PlanePoint"):
        call()
