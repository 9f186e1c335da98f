"""Property tests over the K0, J0/Y0 and disk-trap entry points, the
segment sampler, the Wilson interval, R_z, the functions that take a count
and every CLI command
(``bessel``, ``disk``, ``simulate``, ``verify``, ``figures`` and
``conjecture``).

Every call either returns a finite value in its domain or raises a
``TrapProbError``; every CLI run exits with a documented code.  The drawn
floats include nan, +-inf, signed zeros, subnormals and 1e+-300 next to
ordinary values.

An uncapped walk (t_max = inf) from far away can take millions of steps
before it hits the trap or meets ``STEP_CAP`` (1e8), so the sampler
properties, and every CLI property, run with the cap lowered to
``TEST_STEP_CAP``; ConvergenceError at the cap is a ``TrapProbError`` like
any other.  The CLI properties pass each value as its own token (``--a``,
``-1e+300``), as a shell would.
"""

import contextlib
import io
import math
import sys
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import trapprob.segment_sim as sim
from trapprob import (
    BoundedValue,
    BoundReport,
    ConvergenceError,
    PlanePoint,
    TrapProbError,
    bessel_j0_y0,
    check_theorem1,
    check_theorem2,
    f_disk,
    harmonic_measure_nodes,
    harmonic_number,
    hunt_approx,
    k0,
    k0_bounds,
    make_segment_trap,
    p_disk,
    r_z,
    release_circle,
    sample_batch,
    wilson_interval,
)
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
TEST_STEP_CAP = 300
UNIT = make_segment_trap(-1.0, 1.0)

FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 5e-16, 3.0, 5e-324, 1e-300, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.floats(min_value=-10.0, max_value=10.0),
)
# on the trap, on the axis outside it, and anywhere
STARTS = st.one_of(
    st.builds(PlanePoint, st.floats(min_value=-1.0, max_value=1.0), st.just(0.0)),
    st.builds(PlanePoint, FINITE, st.just(0.0)),
    st.builds(PlanePoint, FINITE, FINITE),
)
T_MAX = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1.0, 1e8, 1e300, sys.float_info.max, math.inf]),
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False),  # up to +inf
)
SEEDS = st.one_of(st.sampled_from([-1, 0, 2**64 - 1, 2**64]), st.integers(0, 2**64 - 1))
# FLOATS as counts (nan, infinities, fractions, negatives and zero), small
# integers, and integers past the double range (up to 10**400), which every
# count check refuses.  A finite integral count from COUNT_MAX to the
# largest double asks for that many points or walks, so it measures memory
# and time, not the count check, and is left out (harmonic_number, which
# takes any count in constant time, also gets integral counts up to 1e15).
COUNT_MAX = 64
COUNTS = st.one_of(
    st.integers(-2, COUNT_MAX),
    FLOATS.filter(lambda n: not (math.isfinite(n) and n == int(n) and n > COUNT_MAX)),
    st.integers(int(sys.float_info.max) + 1, 10**400),
)


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


@PROPERTY
@given(st.one_of(FLOATS, st.lists(FLOATS, max_size=6)))
@example(math.inf)
@example([2.0, math.inf])
def test_bessel_j0_y0_is_finite_or_raises(x):
    try:
        j, y = bessel_j0_y0(x)
    except TrapProbError:
        return
    assert np.all(np.asarray(x) > 0.0)
    assert np.all(np.isfinite(j)) and np.all(np.isfinite(y)) and np.all(np.abs(j) <= 1.0)


def _exit_code(argv):
    """The exit code of ``main(argv)`` under the lowered step cap, its
    output discarded."""
    with mock.patch.object(sim, "STEP_CAP", TEST_STEP_CAP), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


@settings(max_examples=100, deadline=None)
@given(FLOATS, FLOATS, FLOATS)
def test_disk_cli_exits_with_a_documented_code(r, r_T, value):
    assert _exit_code(["disk", "--r", repr(r), "--rt", repr(r_T), "--t-grid", repr(value)]) in EXIT_CODES


@PROPERTY
@given(FLOATS, FLOATS, FLOATS, st.sampled_from(["raw", "tau0"]))
def test_hunt_approx_is_a_number_or_raises(r, r_T, t, variant):
    try:
        value = hunt_approx(r, r_T, t, variant)
    except TrapProbError:
        return
    # unclamped by design; -inf is the documented limit where the
    # denominator vanishes
    assert math.isfinite(value) or value == -math.inf


@settings(max_examples=100, deadline=None)
@given(st.lists(STARTS, min_size=1, max_size=12), T_MAX, SEEDS, st.integers(0, 2**40))
def test_sample_batch_records_are_well_formed_or_raises(starts, t_max, seed, first_index):
    with mock.patch.object(sim, "STEP_CAP", TEST_STEP_CAP):
        try:
            records = sample_batch(UNIT, starts, t_max, seed, first_index=first_index)
        except TrapProbError:
            return
    assert records.dtype == sim.RECORD_DTYPE and len(records) == len(starts)
    assert not (records.time < 0.0).any() and not np.isnan(records.time).any()
    assert (records.censored == (records.time > t_max)).all()
    hit = ~records.censored
    # the tolerance band past each endpoint counts as the trap
    assert (abs(records.x[hit]) <= 1.0 + sim.ENDPOINT_TOL).all()
    assert np.isnan(records.x[records.censored]).all()
    assert ((records.steps >= 0) & (records.steps <= TEST_STEP_CAP)).all()


# segments [a, a + length]: most half-lengths are not powers of two, so the
# walk's lengths and times are not the unit walk's scaled exactly
SEGMENTS = st.builds(lambda a, length: make_segment_trap(a, a + length),
                     st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=1e-3, max_value=20.0))
NEAR = st.floats(min_value=-30.0, max_value=30.0)


@settings(max_examples=100, deadline=None)
@given(SEGMENTS, st.lists(st.builds(PlanePoint, NEAR, st.one_of(st.just(0.0), NEAR)), min_size=1, max_size=6),
       st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2**64 - 1))
# the first jump lands on the trap at exactly the cap: captured, not censored
@example(make_segment_trap(-1.4048376681967356, 1.4048376681967356), [PlanePoint(0.0, 0.5358221556440268)],
         3.5554308354127357, 11)
def test_a_record_is_censored_iff_its_time_passes_the_cap(trap, starts, t_max, seed):
    with mock.patch.object(sim, "STEP_CAP", TEST_STEP_CAP):
        try:
            records = sample_batch(trap, starts, t_max, seed)
        except ConvergenceError:
            return
    assert (records.censored == (records.time > t_max)).all()
    c, h = 0.5 * (trap.a + trap.b), 0.5 * (trap.b - trap.a)
    hit = records.x[~records.censored]
    assert (abs(hit - c) <= h + 1e-12 * (abs(c) + h)).all()


@PROPERTY
@given(st.one_of(FLOATS, st.lists(FLOATS, max_size=6), st.integers(-3, COUNT_MAX + 3)),
       st.one_of(COUNTS, st.integers(1, 10**400)))
@example(5, 3)
@example(4, 3)
@example(-1, 3)
@example(math.nan, 3)
def test_wilson_interval_is_a_band_of_probabilities_or_raises(successes, n):
    try:
        lo, hi = wilson_interval(successes, n)
    except TrapProbError:
        return
    counts = np.asarray(successes, dtype=float)
    assert n == int(n) >= 1 and np.all((0.0 <= counts) & (counts <= n))
    assert np.all((0.0 <= lo) & (lo <= hi) & (hi <= 1.0))


@PROPERTY
@given(FLOATS, FLOATS, FLOATS, FLOATS)
@example(a=-1.0, b=1.0, x=1.7e308, y=1.7e308)
def test_r_z_is_finite_or_raises(a, b, x, y):
    try:
        value = r_z(make_segment_trap(a, b), PlanePoint(x, y))
    except TrapProbError:
        return
    assert math.isfinite(value) and value > 0.0


@PROPERTY
@given(FLOATS, COUNTS, SEEDS)
def test_release_circle_points_lie_on_the_circle_or_raises(r, n, seed):
    try:
        points = release_circle(r, n, seed)
    except TrapProbError:
        return
    assert n == int(n) >= 1 and len(points) == int(n)
    assert all(abs(p.x) <= r and abs(p.y) <= r for p in points)


@PROPERTY
@given(COUNTS)
def test_count_arguments_are_integral_or_raise(n):
    try:
        nodes, weights = harmonic_measure_nodes(n)
    except TrapProbError:
        return
    assert n == int(n) >= 1 and nodes.shape == weights.shape == (int(n),)
    assert (np.abs(nodes) < 1.0).all() and math.isclose(weights.sum(), 1.0, rel_tol=1e-14)


@PROPERTY
@given(st.one_of(COUNTS, st.integers(0, 10**400), st.integers(0, 10**15).map(float)))
def test_harmonic_number_is_integral_or_raises(n):
    try:
        h = harmonic_number(n)
    except TrapProbError:
        return
    # ln(n + 1) <= H_n <= 1 + ln n for n >= 1
    assert n == int(n) >= 0 and math.isfinite(h) and h >= 0.0
    if n >= 1:
        assert math.log1p(n) * (1.0 - 1e-15) <= h <= (1.0 + math.log(n)) * (1.0 + 1e-15)


@PROPERTY
@given(COUNTS, SEEDS)
def test_theorem_checks_take_a_count_or_raise(n, seed):
    segment = make_segment_trap(-1.0, 1.0)
    with mock.patch.object(sim, "STEP_CAP", TEST_STEP_CAP):
        try:
            reports = [check_theorem1(segment, 5.0, 100.0, n, seed)]
            reports += check_theorem2(segment, PlanePoint(5.0, 0.0), 100.0, n, seed)
        except TrapProbError:
            return
    assert n == int(n) >= 1
    for rep in reports:
        assert isinstance(rep, BoundReport) and f"n={int(n)}]" in rep.label
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rhs) and rep.statistical_slack >= 0.0


def _or_ordinary(lo, hi):
    """FLOATS, or an ordinary value in [lo, hi] as often, so that runs also
    get past the argument checks."""
    return st.one_of(st.floats(min_value=lo, max_value=hi), FLOATS)


# the CLI properties write their files into the same directory on every
# example
CLI_PROPERTY = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
TINY_N = st.integers(-2, 20)


def _grid_arg(values):
    return ",".join(repr(v) for v in values)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    _or_ordinary(-3.0, -0.5),
    _or_ordinary(0.5, 3.0),
    _or_ordinary(3.0, 30.0),
    TINY_N,
    st.one_of(st.sampled_from([math.inf, 1e-300, 1e300]), _or_ordinary(1e-3, 1e6)),
    SEEDS,
)
def test_simulate_cli_exits_with_a_documented_code(tmp_path, a, b, radius, n, t_max, seed):
    argv = [
        "simulate", "--a", repr(a), "--b", repr(b), "--radius", repr(radius), "--n", str(n),
        "--tmax", repr(t_max), "--seed", str(seed), "--out-dir", str(tmp_path),
    ]
    assert _exit_code(argv) in EXIT_CODES


@CLI_PROPERTY
@given(_or_ordinary(-3.0, -0.5), _or_ordinary(0.5, 3.0), _or_ordinary(1.0, 200.0), _or_ordinary(1.0, 1e4), TINY_N, SEEDS)
def test_verify_theorem1_cli_exits_with_a_documented_code(tmp_path, a, b, r, tau, n, seed):
    argv = [
        "verify", "theorem1", "--a", repr(a), "--b", repr(b), "--r", repr(r), "--tau", repr(tau),
        "--n", str(n), "--seed", str(seed), "--out-dir", str(tmp_path),
    ]
    assert _exit_code(argv) in EXIT_CODES


@CLI_PROPERTY
@given(_or_ordinary(-3.0, -0.5), _or_ordinary(0.5, 3.0), _or_ordinary(-50.0, 50.0), FLOATS, _or_ordinary(1.0, 1e4),
       TINY_N, SEEDS)
@example(a=-1.0, b=1.0, zx=1e200, zy=0.0, tau=1e300, n=10, seed=0)  # R_z^2 past the double range
def test_verify_theorem2_cli_exits_with_a_documented_code(tmp_path, a, b, zx, zy, tau, n, seed):
    argv = [
        "verify", "theorem2", "--a", repr(a), "--b", repr(b), "--zx", repr(zx), "--zy", repr(zy),
        "--tau", repr(tau), "--n", str(n), "--seed", str(seed), "--out-dir", str(tmp_path),
    ]
    assert _exit_code(argv) in EXIT_CODES


RADII = st.lists(_or_ordinary(1.0, 200.0), min_size=1, max_size=3)
T_POINTS = st.integers(-2, 5)


@CLI_PROPERTY
@given(TINY_N, SEEDS, RADII, _or_ordinary(1e-2, 10.0), _or_ordinary(10.0, 1e5), T_POINTS)
@example(n=10, seed=0, radii=[5.0], t_min=0.0, t_max=100.0, t_points=3)
@example(n=10, seed=0, radii=[5.0], t_min=1.0, t_max=100.0, t_points=0)
def test_figures_cli_exits_with_a_documented_code(tmp_path, n, seed, radii, t_min, t_max, t_points):
    argv = [
        "figures", "--n", str(n), "--seed", str(seed), "--radii", _grid_arg(radii), "--t-min", repr(t_min),
        "--t-max", repr(t_max), "--t-points", str(t_points), "--out-dir", str(tmp_path),
    ]
    assert _exit_code(argv) in EXIT_CODES


@CLI_PROPERTY
@given(_or_ordinary(-3.0, -0.5), _or_ordinary(0.5, 3.0), RADII, TINY_N, SEEDS, _or_ordinary(1e-2, 10.0),
       _or_ordinary(10.0, 1e5), T_POINTS)
def test_conjecture_cli_exits_with_a_documented_code(tmp_path, a, b, radii, n, seed, t_min, t_max, t_points):
    argv = [
        "conjecture", "--a", repr(a), "--b", repr(b), "--radii", _grid_arg(radii), "--n", str(n),
        "--seed", str(seed), "--t-min", repr(t_min), "--t-max", repr(t_max), "--t-points", str(t_points),
        "--out-dir", str(tmp_path),
    ]
    assert _exit_code(argv) in EXIT_CODES


@CLI_PROPERTY
@given(_or_ordinary(1e-8, 1.0), _or_ordinary(1.0, 50.0), st.integers(-2, 20), st.integers(-2, 50))
def test_bessel_cli_exits_with_a_documented_code(tmp_path, x_min, x_max, points, max_m):
    argv = [
        "bessel", "--x-min", repr(x_min), "--x-max", repr(x_max), "--points", str(points),
        "--max-m", str(max_m), "--out", str(tmp_path / "bessel.csv"),
    ]
    assert _exit_code(argv) in EXIT_CODES
