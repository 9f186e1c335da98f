"""Tests for the walk-on-lines sampler and its estimators."""

import cmath
import gc
import hashlib
import importlib
import math
import re
import sys

import numpy as np
import pytest
import scipy.stats as st
from numpy.testing import assert_allclose

import trapprob.segment_sim as sim
from trapprob import (
    ConvergenceError,
    DomainError,
    PlanePoint,
    green_segment,
    make_segment_trap,
    phi_segment,
    release_circle,
    sample_batch,
    survival_curve,
    wilson_interval,
)
from trapprob.segment_sim import (
    RECORD_DTYPE,
    SAMPLER_STREAM,
    Z_99,
    philox4x32,
    philox_jumps,
)
from trapprob.verify import SLACK_SIGMAS, _abelian_bracket, release_and_sample
from conftest import X86_V3, X86_V4, pinned

UNIT = make_segment_trap(-1.0, 1.0)


def _numpy_jumps(seed, index):
    """(C, F) jumps from numpy's Philox generator keyed by (seed, index): a
    jump source for sample_hit independent of the walk's kernel, with C
    standard Cauchy and F = (1 + C^2) / (2 E), E standard exponential."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    while True:
        c, e = rng.standard_cauchy(), rng.standard_exponential()
        yield c, ((1.0 + c * c) / (2.0 * e) if e else math.inf)


# ---------------------------------------------------------------------------
# the scalar reference walk: one trajectory at a time, one (C, F) jump per
# step from any jump source
# ---------------------------------------------------------------------------

def jump_to_axis(x, y, c, f):
    """One off-axis move: land on the horizontal axis (the scalar form of
    sample_batch's off-axis step).

    Returns (new_x, elapsed).  For C standard Cauchy and F = (1 + C^2) /
    (2 E), E ~ Exp(1) independent of C, the landing abscissa x + |y| C is
    Cauchy(x, |y|) distributed and the elapsed time y^2 F has the exact
    joint law with it of the axis crossing.
    """
    d = abs(y)
    return x + d * c, (d * d) * f  # squared by a product, as in sample_batch: pow may differ in the last bit


def jump_to_line(x, c, f):
    """One on-axis move from |x| > 1: land on the vertical line x = sign(x)
    (the scalar form of sample_batch's on-axis step).

    Returns (new_x, new_y, elapsed) with new_x = sign(x), vertical offset
    (|x|-1) C and elapsed time (|x|-1)^2 F.
    """
    gap = abs(x) - 1.0
    return math.copysign(1.0, x), gap * c, (gap * gap) * f


def sample_hit(start, t_max, jumps):
    """Simulate one trajectory from ``start`` against the normalized segment.

    Each step consumes one (C, F) pair from the iterator ``jumps`` (a pair
    is redrawn in the measure-zero event that it is not finite).  Returns
    one ``RECORD_DTYPE`` row (a ``np.record``); raises ConvergenceError if
    the walk exceeds sim.STEP_CAP steps (read at call time, so a test can
    lower it).  This is the scalar reference for sample_batch: fed that
    kernel's jumps, it returns the same record.
    """
    if not t_max > 0.0:
        raise DomainError(f"t_max must be positive, got {t_max!r}")
    x, y = float(start.x), float(start.y)
    elapsed = 0.0
    steps = 0
    while not (y == 0.0 and abs(x) <= 1.0 + sim.ENDPOINT_TOL):
        if steps >= sim.STEP_CAP:
            raise ConvergenceError(
                f"trajectory from ({start.x}, {start.y}) exceeded {sim.STEP_CAP} steps"
            )
        c, f = next(jumps)
        while not (math.isfinite(c) and math.isfinite(f)):
            c, f = next(jumps)
        if y != 0.0:
            x, dt = jump_to_axis(x, y, c, f)
            y = 0.0
        else:
            x, y, dt = jump_to_line(x, c, f)
        elapsed += dt
        steps += 1
        if elapsed > t_max:  # censored, even where the landing is on the trap
            x = math.nan
            break
    return np.rec.fromrecords([(elapsed, x, elapsed > t_max, steps)], dtype=RECORD_DTYPE)[0]


def _digest(records):
    """sha256 of the four record columns."""
    digest = hashlib.sha256()
    for name in RECORD_DTYPE.names:
        digest.update(np.ascontiguousarray(records[name]).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "counter, key, want",
    [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        (
            (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
            (0xA4093822, 0x299F31D0),
            (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
        ),
    ],
)
def test_philox4x32_known_answers(counter, key, want):
    # the Random123 known-answer vectors for Philox4x32-10
    assert tuple(int(w) for w in philox4x32(*counter, *key)) == want


def test_open_unit_never_reaches_the_ends():
    ones = np.uint64(0xFFFFFFFF)
    top = sim._open_unit(ones, ones)
    bottom = sim._open_unit(np.uint64(0), np.uint64(0))
    assert 0.0 < bottom < top < 1.0
    assert math.log(top) < 0.0  # so -2 ln U1 is never 0, and F is finite
    # the uniforms nearest 1/2 are 2^-53 away, so C = tan(pi (U2 - 1/2)) is never 0
    assert sim._open_unit(np.uint64(2**31), np.uint64(0)) - 0.5 == 2.0**-53
    assert sim._open_unit(np.uint64(2**31 - 1), ones) - 0.5 == -(2.0**-53)


def test_philox_jumps_are_cauchy_and_exponential():
    # C is Cauchy(0, 1), and E = (1 + C^2) / (2 F) is Exp(1) and independent of C
    n = 10**5
    c, f = philox_jumps(2025, np.arange(n), 3)
    e = (1.0 + c * c) / (2.0 * f)
    for draws, law in ((c, "cauchy"), (e, "expon")):
        dks = st.kstest(draws, law).statistic
        assert dks < 1.9495 / math.sqrt(n)  # alpha = 1e-3, as criterion 5
    assert abs(st.spearmanr(c, e).statistic) < 4.0 / math.sqrt(n)
    # a different step or seed gives different draws
    assert not np.array_equal(philox_jumps(2025, np.arange(n), 4)[0], c)
    assert not np.array_equal(philox_jumps(2026, np.arange(n), 3)[0], c)


# sha256 of philox_jumps's (C, F) on the grid of test_stream_pinned_under_its_version,
# by SAMPLER_STREAM and dispatch row
STREAM_PINS = {
    "philox4x32-10/cauchy-exp/3": {
        X86_V4: "881cfa6817ba085e519d5a3aed465105eb65e2a9f36b9bdc062f52388a5c1ea2",
        X86_V3: "9c833a58a6e6115591ce892dfe792b67c0a5c116e467523a01ac63f65bb66422",
    },
}


def test_stream_pinned_under_its_version():
    # the draws of 8 trajectories across the 2^32 index boundary, steps 0-7:
    # a change to them must come with a new SAMPLER_STREAM, which run
    # manifests record
    seed = 2**40 + 12345
    index = np.uint64(2**32 - 4) + np.arange(8, dtype=np.uint64)
    c, f = philox_jumps(seed, index, np.arange(8)[:, None])
    digest = hashlib.sha256(c.tobytes() + f.tobytes()).hexdigest()
    assert SAMPLER_STREAM in STREAM_PINS, f"no pin for SAMPLER_STREAM {SAMPLER_STREAM!r}; this run computed {digest}"
    want = pinned(STREAM_PINS[SAMPLER_STREAM], digest)
    assert digest == want, f"the draws of SAMPLER_STREAM {SAMPLER_STREAM!r} changed (sha256 {digest}): bump SAMPLER_STREAM"


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def test_jump_to_axis_formula():
    x, dt = jump_to_axis(2.0, 3.0, 2.0, 4.0)
    assert_allclose(x, 2.0 + 3.0 * 2.0, rtol=1e-15)
    assert_allclose(dt, 36.0, rtol=1e-15)


def test_jump_to_line_formula():
    x, y, dt = jump_to_line(-4.0, -0.75, 0.25)
    assert x == -1.0
    assert_allclose(y, 3.0 * -0.75, rtol=1e-15)
    assert_allclose(dt, 2.25, rtol=1e-15)


def test_jump_marginals():
    # hitting time of a line at distance D is D^2/g^2 with g standard
    # normal, and the landing is Cauchy: the kernel's jumps from (0, 1)
    # have both laws
    x_land, dt = jump_to_axis(0.0, 1.0, *philox_jumps(2024, np.arange(10**5), 0))

    # KS against the exact time CDF 2(1 - Phi(1/sqrt(t)))
    u = 2.0 * st.norm.sf(1.0 / np.sqrt(np.sort(dt)))
    n = u.size
    dks = np.max(np.abs(u - np.arange(1, n + 1) / n))
    assert dks < 1.9495 / math.sqrt(n)  # alpha = 1e-3

    # frozen point value: P(T <= 1) = 2(1 - Phi(1)) = 0.31731...
    assert_allclose(np.mean(dt <= 1.0), 0.3173105078629141, atol=5e-3)

    # landing quantiles against Cauchy(0, 1)
    qs = np.linspace(0.05, 0.95, 19)
    emp = np.quantile(x_land, qs)
    want = np.tan(np.pi * (qs - 0.5))
    dens = 1.0 / (np.pi * (1.0 + want**2))
    se = np.sqrt(qs * (1.0 - qs) / n) / dens
    assert np.all(np.abs(emp - want) < 4.1 * se)


def test_one_jump_joint_law_through_sample_batch():
    # a jump from (0, 1) to the axis lands at x ~ Cauchy(0, 1) after a time
    # T = L^2 / (2 E), L^2 = 1 + x^2, with E ~ Exp(1) independent of x: on a
    # trap so wide that every first landing is captured, L^2 / (2 T) is
    # Exp(1) and uncorrelated in rank with x (the joint law, not only the
    # marginals)
    n = 10**5
    records = sample_batch(make_segment_trap(-1e150, 1e150), [PlanePoint(0.0, 1.0)] * n, 1e300, seed=5)
    assert not records.censored.any() and (records.steps == 1).all()
    e = (1.0 + records.x * records.x) / (2.0 * records.time)
    assert st.kstest(e, "expon").statistic < 1.9495 / math.sqrt(n)  # alpha = 1e-3
    assert abs(st.spearmanr(records.x, e).statistic) < 4.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# sample_hit
# ---------------------------------------------------------------------------

def test_start_on_trap_is_instant():
    rec = sample_hit(PlanePoint(0.25, 0.0), 10.0, _numpy_jumps(0, 0))
    assert rec.dtype == RECORD_DTYPE
    assert rec.time == 0.0 and rec.steps == 0 and not rec.censored
    assert rec.x == 0.25


def test_bad_cap_rejected():
    with pytest.raises(DomainError):
        sample_hit(PlanePoint(0.0, 5.0), 0.0, _numpy_jumps(0, 0))


def test_single_jump_capture():
    # from (0, 1): C = 0.4 -> landing x = 0.4 inside, F = 0.25 -> dt = 0.25
    rec = sample_hit(PlanePoint(0.0, 1.0), 10.0, iter([(0.4, 0.25)]))
    assert not rec.censored
    assert rec.steps == 1
    assert_allclose(rec.time, 0.25, rtol=1e-15)
    assert_allclose(rec.x, 0.4, rtol=1e-15)


def test_censoring_beats_capture():
    # a landing inside the trap, but slow: dt = 100 > t_max = 50, so the
    # record is censored even though the endpoint is on the trap
    rec = sample_hit(PlanePoint(0.0, 1.0), 50.0, iter([(0.0, 100.0)]))
    assert rec.censored
    assert math.isnan(rec.x)
    assert_allclose(rec.time, 100.0, rtol=1e-15)


def test_axis_then_line_sequence():
    # first jump lands outside the segment on the axis, second jumps to the
    # endpoint line and captures at (1, 0)
    pairs = [(2.0, 1.0), (0.0, 0.04)]
    rec = sample_hit(PlanePoint(0.0, 1.0), 1e6, iter(pairs))
    assert rec.steps == 2
    # step 1: x = 0 + 1*2 = 2 (outside), dt = 1*1 = 1
    # step 2: from x=2: gap=1, (C, F) = (0, 0.04): y=0, x=+1, dt = 0.04
    assert not rec.censored
    assert rec.x == 1.0
    assert_allclose(rec.time, 1.04, rtol=1e-15)


def test_non_finite_draw_redraw():
    pairs = [(math.inf, 9.9), (0.5, math.inf), (0.0, 0.25)]
    rec = sample_hit(PlanePoint(0.0, 1.0), 10.0, iter(pairs))
    assert rec.steps == 1
    assert_allclose(rec.time, 0.25, rtol=1e-15)
    assert rec.x == 0.0


def test_step_cap_raises(monkeypatch):
    monkeypatch.setattr(sim, "STEP_CAP", 1)
    with pytest.raises(ConvergenceError):
        sample_hit(PlanePoint(0.0, 1e6), math.inf, _numpy_jumps(11, 0))
    with pytest.raises(ConvergenceError):
        sim.sample_batch(UNIT, [PlanePoint(0.0, 1e6)] * 3, math.inf, seed=11)


def test_uncapped_walk_past_the_double_range_raises():
    # from x = 1.7e308 on the axis a line jump overflows the offset whenever
    # |C| > 1.06; an uncapped walk could never come back from there
    with pytest.raises(ConvergenceError, match="left the double range"):
        sample_batch(UNIT, [PlanePoint(1.7e308, 0.0)] * 20, math.inf, seed=4)
    # with a finite cap the same jumps take an infinite time: censored
    records = sample_batch(UNIT, [PlanePoint(1.7e308, 0.0)] * 20, 1e300, seed=4)
    assert records.censored.all() and (records.time == math.inf).all()


def test_a_walk_that_reaches_the_trap_at_the_cap_is_captured():
    # on [-h, h] the first jump from (0, y0) lands on the trap at exactly
    # t_max, which is not past the cap; walked in units of h, the same walk
    # read censored at time t_max, and a survival curve ending at the cap
    # refused its records
    h, y0, t_max = 1.4048376681967356, 1.4192799084398817, 11.423639748656498
    records = sample_batch(make_segment_trap(-h, h), [PlanePoint(0.0, y0)], t_max, 11)
    assert records.time[0] == t_max and not records.censored[0] and records.steps[0] == 1
    captured_fraction, _, _ = survival_curve(records, [1.0, t_max])
    assert captured_fraction.tolist() == [0.0, 0.0]


def test_trajectories_terminate():
    records = sample_batch(UNIT, [PlanePoint(0.0, 5.0)] * 400, 1e6, seed=5, first_index=0)
    assert isinstance(records, np.recarray) and records.dtype == RECORD_DTYPE
    assert len(records) == 400
    hit = ~records.censored
    assert np.all(np.abs(records.x[hit]) <= 1.0)
    assert np.all(records.time[hit] <= 1e6)
    assert np.all(records.time[~hit] > 1e6) and np.all(np.isnan(records.x[~hit]))
    frac = hit.mean()
    assert 0.3 < frac < 0.95
    assert 1.0 <= records.steps.mean() < 50.0


def test_batch_matches_scalar_reference():
    # sample_hit fed the kernel's own jumps for trajectory j reproduces row
    # j bit for bit: random starts, starts on the trap (inside, at and just
    # past an endpoint), starts on the axis outside it, starts placed so
    # that the first jump lands on an endpoint, and starts whose line jumps
    # are the smallest and largest there are
    seed, t_max = 3, 50.0
    rng = np.random.default_rng(8)
    starts = [PlanePoint(float(px), float(py)) for px, py in rng.normal(0.0, 3.0, (1200, 2))]
    starts += [PlanePoint(0.3, 0.0), PlanePoint(-1.0, 0.0), PlanePoint(1.0 + 5e-16, 0.0)]
    starts += [PlanePoint(3.0, 0.0), PlanePoint(-2.5, 0.0)]
    for j in range(len(starts), len(starts) + 6):
        c, f = (float(v) for v in philox_jumps(seed, j, 0))
        y = (0.5 + j % 3) / math.sqrt(f)  # a landing time well inside t_max
        starts.append(PlanePoint(math.copysign(1.0, j % 2 - 0.5) - y * c, y))
    # the extreme line-jump offsets: on-axis starts at the first doubles past
    # +-(1 + ENDPOINT_TOL), whose tiny offsets must not count as landing on
    # the axis, and starts 1e300 away, whose jumps overflow under the cap
    edge = math.nextafter(1.0 + sim.ENDPOINT_TOL, 2.0)
    starts += [PlanePoint(edge, 0.0), PlanePoint(-edge, 0.0)]
    starts += [PlanePoint(1e300, 0.0), PlanePoint(-1e300, 0.0), PlanePoint(0.0, 1e300), PlanePoint(0.0, -1e300)]
    records = sample_batch(UNIT, starts, t_max, seed)

    landed = 0
    for j, start in enumerate(starts):
        pairs = [tuple(float(v) for v in philox_jumps(seed, j, k)) for k in range(records.steps[j])]
        ref = sample_hit(start, t_max, iter(pairs))
        row = records[j]
        assert (ref.time, ref.censored, ref.steps) == (row.time, row.censored, row.steps), j
        assert ref.x == row.x or (math.isnan(ref.x) and math.isnan(row.x)), j
        landed += row.steps == 1 and abs(abs(row.x) - 1.0) <= sim.ENDPOINT_TOL
    assert landed == 6
    assert 0 < records.censored.sum() < len(starts)
    assert (records.steps[-6:-4] >= 2).all()  # the first jump lands off the axis
    assert records.censored[-4:].all() and (records.time[-4:] == math.inf).all() and (records.steps[-4:] == 1).all()


# ---------------------------------------------------------------------------
# batching and determinism
# ---------------------------------------------------------------------------

def _assert_same_records(a, b):
    assert len(a) == len(b)
    for name in RECORD_DTYPE.names:
        assert np.array_equal(a[name], b[name], equal_nan=name == "x"), name


def test_batch_deterministic_and_split_invariant():
    starts = [PlanePoint(0.0, 3.0)] * 64 + [PlanePoint(4.0, -2.0)] * 64
    a = sample_batch(UNIT, starts, 100.0, seed=42)
    _assert_same_records(sample_batch(UNIT, starts, 100.0, seed=42), a)
    b = [  # the same batch as 4 chunks
        sample_batch(UNIT, starts[lo : lo + 32], 100.0, seed=42, first_index=lo)
        for lo in range(0, len(starts), 32)
    ]
    _assert_same_records(np.concatenate(b), a)


def test_batch_index_high_word_is_used():
    starts = [PlanePoint(0.5, 2.0), PlanePoint(-3.0, 1.0)] * 16
    first = 2**32 - 16
    whole = sample_batch(UNIT, starts, 100.0, seed=42, first_index=first)
    halves = [sample_batch(UNIT, starts[lo : lo + 16], 100.0, seed=42, first_index=first + lo) for lo in (0, 16)]
    _assert_same_records(np.concatenate(halves), whole)
    # trajectory 2^32 + 5 is not trajectory 5
    low = sample_batch(UNIT, starts[5:6], 100.0, seed=42, first_index=5)
    high = sample_batch(UNIT, starts[5:6], 100.0, seed=42, first_index=2**32 + 5)
    assert (low.time[0], low.steps[0]) != (high.time[0], high.steps[0])


def test_batch_index_offset_consistency():
    starts = [PlanePoint(0.0, 3.0), PlanePoint(2.5, 1.0), PlanePoint(-5.0, 0.5)]
    whole = sample_batch(UNIT, starts, 100.0, seed=9)
    tail = sample_batch(UNIT, starts[1:], 100.0, seed=9, first_index=1)
    assert whole[1].time == tail[0].time and whole[2].time == tail[1].time


# ---------------------------------------------------------------------------
# drawing ahead
# ---------------------------------------------------------------------------

def _spy_on_blocks(monkeypatch):
    """Record the step column of every philox_jumps call sample_batch makes."""
    blocks = []

    def spy(seed, index, step):
        blocks.append(np.asarray(step).ravel().copy())
        return philox_jumps(seed, index, step)

    monkeypatch.setattr(sim, "philox_jumps", spy)
    return blocks


def test_draw_ahead_matches_per_step_draws(monkeypatch):
    # long walks: several multi-step blocks, and rows that finish in the
    # middle of a block while others run on
    seed, t_max = 17, 1e8
    xy = np.random.default_rng(600).normal(0.0, 3.0, (600, 2))
    starts = [PlanePoint(float(px), float(py)) for px, py in xy]
    blocks = _spy_on_blocks(monkeypatch)
    records = sim.sample_batch(UNIT, starts, t_max, seed)
    monkeypatch.undo()

    assert max(len(b) for b in blocks) > 1
    block_ends = {int(b[-1]) + 1 for b in blocks}
    assert any(s not in block_ends for s in records.steps[records.steps > 0])
    for j, start in enumerate(starts):
        pairs = [tuple(float(v) for v in philox_jumps(seed, j, k)) for k in range(records.steps[j])]
        ref = sample_hit(start, t_max, iter(pairs))
        row = records[j]
        assert (ref.time, ref.censored, ref.steps) == (row.time, row.censored, row.steps), j
        assert ref.x == row.x or (math.isnan(ref.x) and math.isnan(row.x)), j


def test_philox_jumps_step_array_equals_per_step_calls():
    seed = 2**40 + 12345
    index = np.uint64(2**32 - 3) + np.arange(6, dtype=np.uint64)  # across the high word
    steps = np.arange(7, 12)[:, None]
    c, f = philox_jumps(seed, index, steps)
    assert c.shape == f.shape == (5, 6)
    for k, step in enumerate(steps[:, 0]):
        for j, idx in enumerate(index):
            want = philox_jumps(seed, idx, int(step))
            assert (c[k, j].tobytes(), f[k, j].tobytes()) == (want[0].tobytes(), want[1].tobytes())
    # the same block by rows of steps against one trajectory
    row = philox_jumps(seed, index[4], steps[:, 0])
    assert np.array_equal(row[0], c[:, 4]) and np.array_equal(row[1], f[:, 4])


def test_step_cap_fires_after_the_same_steps(monkeypatch):
    # a walk that draws one step at a time stops at the top of step STEP_CAP
    # and names the first trajectory still running; drawing ahead must
    # neither draw past the cap nor stop elsewhere
    xy = np.random.default_rng(3).normal(0.0, 3.0, (40, 2))
    starts = [PlanePoint(float(px), float(py)) for px, py in xy]
    full = sample_batch(UNIT, starts, 1e8, seed=21)
    j = int(np.flatnonzero(full.steps > 3)[0])

    monkeypatch.setattr(sim, "STEP_CAP", 3)
    blocks = _spy_on_blocks(monkeypatch)
    want = f"trajectory {j} from ({starts[j].x}, {starts[j].y}) exceeded 3 steps"
    with pytest.raises(ConvergenceError, match=re.escape(want)):
        sim.sample_batch(UNIT, starts, 1e8, seed=21)
    assert max(int(b.max()) for b in blocks) == 2

    # a cap equal to the longest walk is not exceeded
    monkeypatch.setattr(sim, "STEP_CAP", int(full.steps.max()))
    _assert_same_records(sim.sample_batch(UNIT, starts, 1e8, seed=21), full)


def test_walk_pin_on_the_previous_release_points():
    # sha256 of the four record columns, fed the release points that came
    # before the walk's kernel drew them (numpy's Philox keyed by (0,
    # 2^64 - 1)); this pinned the walk bit for bit from before it drew
    # ahead until SAMPLER_STREAM 3, where its draws became a Cauchy landing
    # and an exponential clock and the pin was retaken
    theta = np.random.Generator(np.random.Philox(key=np.array([0, 2**64 - 1], dtype=np.uint64))).random(2500) * (2.0 * np.pi)
    starts = [PlanePoint(float(px), float(py)) for px, py in zip(5.0 * np.cos(theta), 5.0 * np.sin(theta))]
    digest = _digest(sample_batch(UNIT, starts, 20.0 * 3.0 * 0.5 * math.e * 4.0, 0))
    assert digest == pinned({
        X86_V4: "35b090ecded580ac9fb16a68d25034d078b7caf1a3334ae6b7288961b4b64c92",
        X86_V3: "bb960823bdcb4293d671b0a2746bab9031519be0dd283da7a6ee49e4dadd1646",
    }, digest)


def test_release_and_sample_pin():
    # sha256 of the four record columns with the kernel's release angles
    # (retaken for SAMPLER_STREAM 3)
    trap = make_segment_trap(-1.0, 1.0)
    digest = _digest(release_and_sample(trap, 5.0, 2500, 20.0 * 3.0 * 0.5 * math.e * 4.0, 0))
    assert digest == pinned({
        X86_V4: "ba6ce30f205817a5bb9a5c97c2c419772af64b60aad8a7878c1098d25cf67398",
        X86_V3: "ec4d3ce43c41274ea0d80c440655b172d23a0911e3c5b619c4336aa4e5857971",
    }, digest)


# ---------------------------------------------------------------------------
# release_circle
# ---------------------------------------------------------------------------

def test_release_circle_geometry():
    pts = release_circle(7.0, 500, seed=1)
    assert len(pts) == 500
    for p in pts:
        assert_allclose(math.hypot(p.x, p.y), 7.0, rtol=1e-12)


def test_release_circle_counter():
    # point i has angle 2 pi U, U from the block with counter (0, 1, j mod
    # 2^32, j div 2^32), j = first_index + i; here j crosses 2^32
    seed, first = 2**40 + 12345, 2**32 - 2
    pts = release_circle(3.0, 4, seed, first_index=first)
    for i, p in enumerate(pts):
        j = first + i
        w0, w1, _, _ = (int(w) for w in philox4x32(0, 1, j % 2**32, j // 2**32, seed % 2**32, seed // 2**32))
        u = ((((w0 << 32) | w1) >> 12) + 0.5) / 2**52
        assert_allclose([p.x, p.y], [3.0 * math.cos(2.0 * math.pi * u), 3.0 * math.sin(2.0 * math.pi * u)],
                        rtol=0, atol=1e-14)
    # chunks with their offsets reproduce the whole set, bit for bit
    assert release_circle(3.0, 10, seed)[3:] == release_circle(3.0, 7, seed, 3)


def test_release_circle_uniform_angles():
    pts = release_circle(1.0, 20000, seed=3)
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    # CLT: means of cos/sin are 0 +- 1/sqrt(2n); allow 4 sigma
    bound = 4.0 / math.sqrt(2.0 * len(pts))
    assert abs(xs.mean()) < bound and abs(ys.mean()) < bound
    assert_allclose((xs**2 + ys**2), 1.0, rtol=1e-12)


def test_release_circle_validation():
    with pytest.raises(DomainError):
        release_circle(0.0, 5, 0)
    for n in (0, -1, 2.5, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="release count"):
            release_circle(1.0, n, 0)
    # a float seed is refused like a float first_index, not left to end in
    # a TypeError at the kernel's bit operations
    for seed in (-1, 2**64, 1.5, 2.0, np.float64(3.0), "0", None):
        with pytest.raises(DomainError, match="seed must be in"):
            release_circle(1.0, 5, seed)
        with pytest.raises(DomainError, match="seed must be in"):
            sample_batch(UNIT, [PlanePoint(0.0, 2.0)] * 3, 10.0, seed)


@pytest.mark.parametrize("first_index", [2**64 - 2, 2**64 - 1, 2**64, -1, 1.5, 2.0, "0", None])
def test_first_index_out_of_range_is_refused(first_index):
    # 3 trajectories from 2^64 - 2 would wrap onto indices 0 and 1, which
    # another batch owns; a float or string index is not truncated or parsed
    with pytest.raises(DomainError, match="first_index"):
        release_circle(5.0, 3, 0, first_index=first_index)
    with pytest.raises(DomainError, match="first_index"):
        sample_batch(UNIT, [PlanePoint(0.0, 2.0)] * 3, 10.0, 0, first_index=first_index)


def test_first_index_reaches_the_last_trajectory():
    # indices 2^64 - 3 .. 2^64 - 1 are the last three; a numpy integer
    # index is an integer too
    top = 2**64 - 3
    starts = release_circle(5.0, 3, 7, first_index=top)
    whole = sample_batch(UNIT, starts, 100.0, 7, first_index=top)
    _assert_same_records(sample_batch(UNIT, starts[2:], 100.0, 7, first_index=top + 2), whole[2:])
    assert release_circle(5.0, 3, 7, first_index=np.uint64(top)) == starts


# ---------------------------------------------------------------------------
# hit-point law
# ---------------------------------------------------------------------------

def test_hit_points_follow_arcsine_measure():
    # The circle-averaged harmonic measure equals the measure seen from
    # infinity exactly (the angular average of a function harmonic outside
    # the trap is its value at infinity), i.e. the arcsine law on [-1, 1].
    # Uncapped runs have heavy-tailed step counts, so a large finite cap is
    # used; the ~11% censored tail biases the captured sub-sample by less
    # than the chi-square noise floor at this n (measured across seeds).
    n = 20000
    starts = release_circle(2.0, n, seed=77)
    records = sample_batch(UNIT, starts, 1e10, seed=77)
    xs = records.x[~records.censored]
    assert len(xs) > 0.8 * n

    k = 20
    edges = -np.cos(np.pi * np.arange(k + 1) / k)  # equal arcsine mass
    counts, _ = np.histogram(xs, bins=edges)
    expected = len(xs) / k
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < st.chi2.ppf(1.0 - 1e-3, k - 1)
    assert abs(xs.mean()) < 4.0 / math.sqrt(2.0 * len(xs))  # symmetry


def _hit_abscissa_cdf(w, x):
    """P(cos theta <= x) for theta with the exterior Poisson kernel density
    (|w|^2 - 1)/(2 pi |w - e^{i theta}|^2), |w| > 1.

    With phi = theta - arg w wrapped to (-pi, pi],
    atan2((|w|+1) sin(phi/2), (|w|-1) cos(phi/2))/pi is an antiderivative of
    the density, so the arc [arccos x, 2 pi - arccos x] has the mass of its
    difference mod 1 (1 at x = 1, where the arc is the whole circle)."""
    rho, alpha = abs(w), cmath.phase(w)

    def antiderivative(theta):
        phi = np.angle(np.exp(1j * (theta - alpha)))
        return np.arctan2((rho + 1.0) * np.sin(phi / 2.0), (rho - 1.0) * np.cos(phi / 2.0)) / np.pi

    a = np.arccos(np.clip(x, -1.0, 1.0))
    return np.where(x >= 1.0, 1.0, np.mod(antiderivative(2.0 * np.pi - a) - antiderivative(a), 1.0))


@pytest.mark.parametrize(
    "a, b, zx, zy",
    [
        pytest.param(-1.0, 1.0, 0.3, 0.5, id="0.3-0.5"),
        pytest.param(-1.0, 1.0, 0.9, 0.05, id="0.9-0.05"),
        pytest.param(-3.0, 2.5, 0.3, 0.5, id="0.3-0.5-on-[-3,2.5]"),
        pytest.param(-3.0, 2.5, 0.9, 0.05, id="0.9-0.05-on-[-3,2.5]"),
    ],
)
def test_whole_walk_hit_point_follows_the_harmonic_measure(a, b, zx, zy):
    """The hit point of a walk from a fixed z has the harmonic measure of
    the segment seen from z: the exterior Poisson kernel at w = phi(z),
    pulled back by phi, so its abscissa is cos(theta).  This sets the whole
    walk against an exact law, not against the reference walk.  KS * sqrt(n)
    against 1.95 (alpha = 1e-3); seed 3 reads 0.53 and 0.89 on both
    segments.  On a general segment with centre c and half-length h the
    walk starts at the image (c + h zx, h zy) of the unit point (zx, zy),
    and its hit abscissa x has the law of c + h cos(theta).

    The captured rows stand for the whole law: at t_max = 1e300, 21 and 4
    of the 2e4 walks are censored, and conditioning on capture moves the
    probability of any set of hit points by at most the censored share
    (0.1% and 0.02%), far below the KS band 1.95/sqrt(n) of about 1.4%.
    """
    n = 20000
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    records = sample_batch(make_segment_trap(a, b), [PlanePoint(c + h * zx, h * zy)] * n, t_max=1e300, seed=3)
    assert records.censored.sum() < 0.002 * n
    xs = np.sort(records.x[~records.censored])
    cdf = _hit_abscissa_cdf(phi_segment(zx, zy), (xs - c) / h)
    rank = np.arange(1, xs.size + 1) / xs.size
    ks = max((rank - cdf).max(), (cdf - (rank - 1.0 / xs.size)).max())
    assert ks * math.sqrt(xs.size) < 1.95


def test_whole_walk_censored_share_follows_the_log_tail():
    """From a fixed z the walk survives past t with probability
    2 pi H(z) / ln(t / tau0) as t -> inf, H the Green's function with pole
    at infinity and tau0 = e^(2 gamma) r_T^2 / 2; at t = 1e300 the next
    term is O(1/ln^2 t), about 0.2% of the share.  The censored count of
    each of two points is held to 4 Poisson standard deviations of
    n 2 pi H(z) / ln(t_max / tau0) (seed 17 reads 64 against 66.3 at
    (5, 0) and 70 against 56.9 at (-3, 2)).  One batch walks both points,
    so its heavy-tailed step count (up to about 6e4) is paid once.  The
    same holds on [-3, 2.5] (centre c, half-length h) for the images
    (c + h x, h y) of the two points, with H at the unit points and the
    trap's own tau0; there n = 5000 shortens the added walk (4.4e4 steps)
    (seed 17 reads 38 against 33.2 and 21 against 28.5).
    """
    t_max = 1e300
    zs = [(5.0, 0.0), (-3.0, 2.0)]
    for a, b, n in ((-1.0, 1.0, 10000), (-3.0, 2.5, 5000)):
        trap = make_segment_trap(a, b)
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        starts = [PlanePoint(c + h * zx, h * zy) for zx, zy in zs for _ in range(n)]
        records = sample_batch(trap, starts, t_max=t_max, seed=17)
        log_tail = math.log(t_max / trap.tau0)
        for k, z in enumerate(zs):
            expected = n * 2.0 * math.pi * green_segment(*z) / log_tail
            censored = int(records.censored[k * n : (k + 1) * n].sum())
            assert abs(censored - expected) <= 4.0 * math.sqrt(expected), (a, b, z, censored, expected)


# ---------------------------------------------------------------------------
# survival_curve
# ---------------------------------------------------------------------------

def _records(*rows):
    """A record array from (time, x, censored, steps) rows."""
    return np.rec.fromrecords(list(rows), dtype=RECORD_DTYPE)


def _toy_records():
    return _records(
        (1.0, 0.0, False, 3),
        (2.0, 0.5, False, 1),
        (3.0, -1.0, False, 7),
        (10.5, math.nan, True, 4),
    )


def test_survival_curve_strict_counting():
    captured_fraction, ci_low, ci_high = survival_curve(_toy_records(), [0.5, 1.0, 2.5, 9.0])
    assert_allclose(captured_fraction, [0.0, 0.0, 0.5, 0.75])
    lo, hi = wilson_interval(np.array([0.0, 0.0, 2.0, 3.0]), 4)
    assert_allclose(ci_low, lo, rtol=1e-14)
    assert_allclose(ci_high, hi, rtol=1e-14)


def test_survival_curve_grid_validation():
    with pytest.raises(DomainError):
        survival_curve(_toy_records(), [2.0, 1.0])
    with pytest.raises(DomainError):
        survival_curve([], [1.0])
    # grid reaching past the cap (censored at 10.5) must be refused
    with pytest.raises(DomainError):
        survival_curve(_toy_records(), [1.0, 11.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_survival_curve_rejects_non_finite_times(bad):
    records = _toy_records()[:3]  # no censored record, so the cap check passes
    with pytest.raises(DomainError, match="grid times must be finite"):
        survival_curve(records, [1.0, bad])


def test_survival_curve_all_captured_allows_any_grid():
    records = _toy_records()[:3]
    captured_fraction, _, _ = survival_curve(records, [100.0])
    assert captured_fraction[0] == 1.0


# ---------------------------------------------------------------------------
# wilson_interval
# ---------------------------------------------------------------------------

def test_wilson_closed_form():
    z = Z_99
    lo, hi = wilson_interval(50.0, 100)
    denom = 1.0 + z * z / 100.0
    center = (0.5 + z * z / 200.0) / denom
    half = (z / denom) * math.sqrt(0.25 / 100.0 + z * z / 40000.0)
    assert_allclose([lo, hi], [center - half, center + half], rtol=1e-14)


def test_wilson_edge_cases():
    lo, hi = wilson_interval(0.0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.25
    lo, hi = wilson_interval(50.0, 50)
    assert 0.75 < lo < 1.0 and hi == 1.0


def test_wilson_band_keeps_its_width_for_huge_counts():
    # 5 successes: the band in units of 1/n tends to [1.6706, 14.9642]; the
    # variance term phat (1 - phat) / n once reached the subnormal range
    # near n = 1e150 and read [2.56, 14.08] at n = 1e154, and 2 n overflowed
    # at the largest double
    for n in [10**e for e in range(6, 301, 2)] + [int(np.finfo(float).max)]:
        lo, hi = wilson_interval(5, n)
        assert_allclose([lo * n, hi * n], [1.6706, 14.9642], atol=6e-4, rtol=0)


@pytest.mark.parametrize("n", [0, -3, math.nan, math.inf, 2.5, pytest.param(10**400, id="10**400")])
def test_wilson_rejects_a_bad_trial_count(n):
    with pytest.raises(DomainError, match="trial count"):
        wilson_interval(1, n)


@pytest.mark.parametrize("successes", [4, 5, -1, math.nan, [0, 1, 4], [math.nan, 1]])
def test_wilson_rejects_a_success_count_outside_zero_to_n(successes):
    with pytest.raises(DomainError, match=r"success counts must lie in \[0, 3\]"):
        wilson_interval(successes, 3)


def test_wilson_vectorized_monotone():
    lo, hi = wilson_interval(np.arange(0, 101), 100)
    assert np.all(np.diff(lo) > -1e-15) and np.all(np.diff(hi) > -1e-15)
    assert np.all(lo <= hi)


# ---------------------------------------------------------------------------
# the Abelian bracket behind the theorem verdicts (verify._abelian_bracket)
# ---------------------------------------------------------------------------

def _sigmas(lows, highs):
    """SLACK_SIGMAS standard errors of the bracket's two means."""
    sd = max(float(np.std(lows, ddof=1)), float(np.std(highs, ddof=1)))
    return SLACK_SIGMAS * (sd / math.sqrt(len(lows)))


def test_abelian_hand_value():
    records = _records(
        (1.0, 0.0, False, 1),
        (4.0, 0.2, False, 2),
        (22.0, math.nan, True, 3),
    )
    mid, slack = _abelian_bracket(records, 2.0)
    w1, w2, w3 = math.exp(-0.5), math.exp(-2.0), math.exp(-11.0)
    low, high = (w1 + w2) / 3.0, (w1 + w2 + w3) / 3.0
    assert_allclose(mid, 0.5 * (low + high), rtol=1e-14)
    # the slack is the half-width w3/6 ~ 2.8e-6 plus three standard errors
    # ~ 0.5; reading the half-width back from it leaves a few 1e-11 of
    # relative noise as the float floor here
    assert_allclose(slack - _sigmas([w1, w2, 0.0], [w1, w2, w3]), w3 / 6.0, rtol=1e-9)


def test_abelian_no_censoring_collapses_bracket():
    records = _toy_records()[:3]
    mid, slack = _abelian_bracket(records, 5.0)
    highs = np.exp(-records.time / 5.0)
    assert mid == float(np.mean(highs))
    assert slack == _sigmas(highs, highs) > 0.0


def test_abelian_zero_deviation_gets_the_rule_of_three_slack():
    # one record, or records whose summands are all equal, show no spread;
    # the statistical part of the slack is then SLACK_SIGMAS / n (the rule of
    # three for an event not seen in n trials), not 0
    mid, slack = _abelian_bracket(_records((30.0, math.nan, True, 2)), 10.0)
    assert mid == 0.5 * math.exp(-3.0)
    assert slack == 0.5 * math.exp(-3.0) + SLACK_SIGMAS
    mid, slack = _abelian_bracket(_records(*[(20.0, 0.5, False, 3)] * 4), 10.0)
    assert mid == math.exp(-2.0)
    assert slack == SLACK_SIGMAS / 4


def test_abelian_bracket_width_bounded_by_cap():
    # every censored record has S > t_max, so the bracket width is at most
    # (#censored/n) exp(-t_max/tau)
    records = sample_batch(UNIT, [PlanePoint(0.0, 4.0)] * 300, 50.0, seed=13)
    mid, slack = _abelian_bracket(records, 10.0)
    highs = np.exp(-records.time / 10.0)
    half_width = slack - _sigmas(np.where(records.censored, 0.0, highs), highs)
    n_cens = records.censored.sum()
    assert 2.0 * half_width <= (n_cens / 300.0) * math.exp(-5.0) + 1e-15
    assert 0.0 <= mid - half_width <= mid + half_width <= 1.0


# ---------------------------------------------------------------------------
# re-imports
# ---------------------------------------------------------------------------

def test_reimport_leaves_one_plane_point_class():
    # a re-imported package must not stay reachable from a process-wide
    # cache (typing's subscription cache kept every PlanePoint class, and
    # with it its module, alive)
    saved = {k: v for k, v in sys.modules.items() if k == "trapprob" or k.startswith("trapprob.")}
    try:
        for _ in range(20):
            for name in saved:
                del sys.modules[name]
            importlib.import_module("trapprob")
            importlib.import_module("trapprob.cli")
    finally:
        for name in [k for k in sys.modules if k == "trapprob" or k.startswith("trapprob.")]:
            del sys.modules[name]
        sys.modules.update(saved)
    gc.collect()
    alive = [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, type) and obj.__name__ == "PlanePoint" and obj.__module__ == "trapprob.conformal"
    ]
    assert alive == [PlanePoint]
