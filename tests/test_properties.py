"""Property tests over the K0 and disk-trap entry points and the ``disk`` CLI.

Every call either returns a finite value in its domain or raises a
``TrapProbError``; every CLI run exits with a documented code.  The drawn
floats include nan, +-inf, signed zeros, subnormals and 1e+-300 next to
ordinary values.
"""

import contextlib
import io
import math
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from trapprob import BoundedValue, TrapProbError, f_disk, k0, k0_bounds, p_disk
from trapprob.cli import main

EDGES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
    5e-324, sys.float_info.min, 1e-300, 1e-8,
    0.5, 1.0, 5.0, 8.0, 745.2, 1e300, sys.float_info.max,
]
FLOATS = st.one_of(
    st.sampled_from(EDGES),
    st.floats(),  # nan, infinities and subnormals included
    st.floats(min_value=1e-3, max_value=1e3),
)
EXIT_CODES = {0, 1, 2, 3, 64}
PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(FLOATS)
def test_k0_is_finite_or_raises(x):
    try:
        bv = k0(x)
    except TrapProbError:
        return
    assert isinstance(bv, BoundedValue)
    assert math.isfinite(bv.value) and bv.value >= 0.0
    assert math.isfinite(bv.abs_error_bound) and bv.abs_error_bound > 0.0


@PROPERTY
@given(FLOATS, st.one_of(st.integers(-3, 60), st.sampled_from([math.nan, math.inf, 2.5, 3.0])))
def test_k0_bounds_is_ordered_or_raises(x, m):
    try:
        lower, upper = k0_bounds(x, m)
    except TrapProbError:
        return
    # +inf is the documented vacuous upper bound, and the lower bound is
    # -inf only where the truncated sum itself is below the double range
    assert not (math.isnan(lower) or math.isnan(upper))
    assert lower < math.inf and upper > -math.inf
    assert lower <= upper


@PROPERTY
@given(FLOATS, FLOATS, FLOATS)
def test_f_disk_is_a_probability_or_raises(r, r_T, tau):
    try:
        value = f_disk(r, r_T, tau)
    except TrapProbError:
        return
    assert math.isfinite(value) and 0.0 <= value <= 1.0


@PROPERTY
@given(FLOATS, FLOATS, FLOATS)
def test_p_disk_is_a_probability_or_raises(r, r_T, t):
    try:
        value = p_disk(r, r_T, t)
    except TrapProbError:
        return
    assert math.isfinite(value) and 0.0 <= value <= 1.0


@settings(max_examples=100, deadline=None)
@given(FLOATS, FLOATS, st.sampled_from(["--t-grid", "--tau-grid"]), FLOATS)
def test_disk_cli_exits_with_a_documented_code(r, r_T, grid_flag, value):
    argv = ["disk", "--r", repr(r), "--rt", repr(r_T), grid_flag, repr(value)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in EXIT_CODES
