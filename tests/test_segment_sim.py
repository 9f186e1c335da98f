"""Tests for the walk-on-lines sampler and its estimators."""

import gc
import importlib
import math
import sys

import numpy as np
import pytest
import scipy.stats as st
from numpy.testing import assert_allclose

import trapprob.segment_sim as sim
from trapprob import (
    AbelianEstimate,
    ConvergenceError,
    DomainError,
    HittingRecord,
    PlanePoint,
    abelian_estimate,
    philox_stream,
    release_circle,
    sample_batch,
    sample_hit,
    survival_curve,
    wilson_interval,
)
from trapprob.segment_sim import (
    RECORD_DTYPE,
    RELEASE_STREAM,
    jump_to_axis,
    jump_to_line,
    philox4x32,
    philox_normals,
)


class _FakeRng:
    """Deterministic stand-in feeding preset draws to the sampler."""

    def __init__(self, pairs, uniforms=()):
        self._pairs = list(pairs)
        self._uniforms = list(uniforms)

    def standard_normal(self, n):
        assert n == 2
        return self._pairs.pop(0)

    def random(self, n):
        out = self._uniforms[:n]
        del self._uniforms[:n]
        return np.asarray(out)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def test_philox_stream_reproducible():
    a = philox_stream(7, 3).standard_normal(4)
    b = philox_stream(7, 3).standard_normal(4)
    assert_allclose(a, b, rtol=0, atol=0)
    c = philox_stream(7, 4).standard_normal(4)
    assert not np.allclose(a, c)


def test_philox_stream_accepts_huge_index():
    rng = philox_stream(0, RELEASE_STREAM)
    assert np.isfinite(rng.standard_normal(1)).all()


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
    assert math.log(top) < 0.0  # so the Box-Muller radius, and g1, is never 0


def test_philox_normals_are_standard():
    n = 10**5
    g1, g2 = philox_normals(2025, np.arange(n), 3)
    for g in (g1, g2):
        dks = st.kstest(g, "norm").statistic
        assert dks < 1.9495 / math.sqrt(n)  # alpha = 1e-3, as criterion 5
    assert abs(np.corrcoef(g1, g2)[0, 1]) < 4.0 / math.sqrt(n)
    # a different step or seed gives different draws
    assert not np.array_equal(philox_normals(2025, np.arange(n), 4)[0], g1)
    assert not np.array_equal(philox_normals(2026, np.arange(n), 3)[0], g1)


# ---------------------------------------------------------------------------
# jumps
# ---------------------------------------------------------------------------

def test_jump_to_axis_formula():
    x, dt = jump_to_axis(2.0, 3.0, -0.5, 1.0)
    assert_allclose(x, 2.0 + (3.0 / 0.5) * 1.0, rtol=1e-15)
    assert_allclose(dt, 36.0, rtol=1e-15)


def test_jump_to_line_formula():
    x, y, dt = jump_to_line(-4.0, 2.0, -1.5)
    assert x == -1.0
    assert_allclose(y, (3.0 / 2.0) * -1.5, rtol=1e-15)
    assert_allclose(dt, 2.25, rtol=1e-15)


def test_jump_marginals():
    # hitting time of a line at distance D is D^2/g^2; landing is Cauchy
    rng = np.random.default_rng(2024)
    g = rng.standard_normal((10**5, 2))
    x_land = g[:, 1] / np.abs(g[:, 0])  # jump_to_axis from (0, 1)
    dt = 1.0 / g[:, 0] ** 2

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


# ---------------------------------------------------------------------------
# sample_hit
# ---------------------------------------------------------------------------

def test_start_on_trap_is_instant():
    rec = sample_hit(PlanePoint(0.25, 0.0), 10.0, philox_stream(0, 0))
    assert rec.time == 0.0 and rec.steps == 0 and not rec.censored
    assert rec.x == 0.25


def test_bad_cap_rejected():
    with pytest.raises(DomainError):
        sample_hit(PlanePoint(0.0, 5.0), 0.0, philox_stream(0, 0))


def test_single_jump_capture():
    # from (0, 1): g1 = 2 -> dt = 0.25, landing x = 0.5 * 0.8 = 0.4 inside
    rec = sample_hit(PlanePoint(0.0, 1.0), 10.0, _FakeRng([(2.0, 0.8)]))
    assert not rec.censored
    assert rec.steps == 1
    assert_allclose(rec.time, 0.25, rtol=1e-15)
    assert_allclose(rec.x, 0.4, rtol=1e-15)


def test_censoring_beats_capture():
    # the same landing inside the trap, but slow: dt = 100 > t_max = 50,
    # so the record is censored even though the endpoint is on the trap
    rec = sample_hit(PlanePoint(0.0, 1.0), 50.0, _FakeRng([(0.1, 0.0)]))
    assert rec.censored
    assert math.isnan(rec.x)
    assert_allclose(rec.time, 100.0, rtol=1e-15)


def test_axis_then_line_sequence():
    # first jump lands outside the segment on the axis, second jumps to the
    # endpoint line and captures at (1, 0)
    pairs = [(1.0, 2.0), (5.0, 0.0)]
    rec = sample_hit(PlanePoint(0.0, 1.0), 1e6, _FakeRng(pairs))
    assert rec.steps == 2
    # step 1: x = 0 + 1*2 = 2 (outside), dt = 1
    # step 2: from x=2: gap=1, g=(5,0): y=0, x=+1, dt = 0.04
    assert not rec.censored
    assert rec.x == 1.0
    assert_allclose(rec.time, 1.04, rtol=1e-15)


def test_zero_draw_redraw():
    pairs = [(0.0, 9.9), (2.0, 0.0)]
    rec = sample_hit(PlanePoint(0.0, 1.0), 10.0, _FakeRng(pairs))
    assert rec.steps == 1
    assert_allclose(rec.time, 0.25, rtol=1e-15)
    assert rec.x == 0.0


def test_step_cap_raises(monkeypatch):
    monkeypatch.setattr(sim, "STEP_CAP", 1)
    with pytest.raises(ConvergenceError):
        sim.sample_hit(PlanePoint(0.0, 1e6), math.inf, philox_stream(11, 0))
    with pytest.raises(ConvergenceError):
        sim.sample_batch([PlanePoint(0.0, 1e6)] * 3, math.inf, seed=11)


def test_trajectories_terminate():
    records = sample_batch(
        [PlanePoint(0.0, 5.0)] * 400, 1e6, seed=5, first_index=0
    )
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
    # sample_hit fed the kernel's own normals for trajectory j reproduces row
    # j bit for bit: random starts, starts on the trap (inside, at and just
    # past an endpoint), starts on the axis outside it, and starts placed so
    # that the first jump lands on an endpoint
    seed, t_max = 3, 50.0
    rng = np.random.default_rng(8)
    starts = [PlanePoint(float(px), float(py)) for px, py in rng.normal(0.0, 3.0, (1200, 2))]
    starts += [PlanePoint(0.3, 0.0), PlanePoint(-1.0, 0.0), PlanePoint(1.0 + 5e-16, 0.0)]
    starts += [PlanePoint(3.0, 0.0), PlanePoint(-2.5, 0.0)]
    for j in range(len(starts), len(starts) + 6):
        g1, g2 = (float(g) for g in philox_normals(seed, j, 0))
        y = (0.5 + j % 3) * abs(g1)  # a landing time well inside t_max
        starts.append(PlanePoint(math.copysign(1.0, j % 2 - 0.5) - y / abs(g1) * g2, y))
    records = sample_batch(starts, t_max, seed)

    landed = 0
    for j, start in enumerate(starts):
        pairs = [tuple(float(g) for g in philox_normals(seed, j, k)) for k in range(records.steps[j])]
        ref = sample_hit(start, t_max, _FakeRng(pairs))
        row = records[j]
        assert (ref.time, ref.censored, ref.steps) == (row.time, row.censored, row.steps), j
        assert ref.x == row.x or (math.isnan(ref.x) and math.isnan(row.x)), j
        landed += row.steps == 1 and abs(abs(row.x) - 1.0) <= sim.ENDPOINT_TOL
    assert landed == 6
    assert 0 < records.censored.sum() < len(starts)


# ---------------------------------------------------------------------------
# batching and determinism
# ---------------------------------------------------------------------------

def _assert_same_records(a, b):
    assert len(a) == len(b)
    for name in RECORD_DTYPE.names:
        assert np.array_equal(a[name], b[name], equal_nan=name == "x"), name


def test_batch_deterministic_and_split_invariant():
    starts = [PlanePoint(0.0, 3.0)] * 64 + [PlanePoint(4.0, -2.0)] * 64
    a = sample_batch(starts, 100.0, seed=42)
    _assert_same_records(sample_batch(starts, 100.0, seed=42), a)
    b = [  # the same batch as 4 chunks
        sample_batch(starts[lo : lo + 32], 100.0, seed=42, first_index=lo)
        for lo in range(0, len(starts), 32)
    ]
    _assert_same_records(np.concatenate(b), a)


def test_batch_index_high_word_is_used():
    starts = [PlanePoint(0.5, 2.0), PlanePoint(-3.0, 1.0)] * 16
    first = 2**32 - 16
    whole = sample_batch(starts, 100.0, seed=42, first_index=first)
    halves = [sample_batch(starts[lo : lo + 16], 100.0, seed=42, first_index=first + lo) for lo in (0, 16)]
    _assert_same_records(np.concatenate(halves), whole)
    # trajectory 2^32 + 5 is not trajectory 5
    low = sample_batch(starts[5:6], 100.0, seed=42, first_index=5)
    high = sample_batch(starts[5:6], 100.0, seed=42, first_index=2**32 + 5)
    assert (low.time[0], low.steps[0]) != (high.time[0], high.steps[0])


def test_batch_index_offset_consistency():
    starts = [PlanePoint(0.0, 3.0), PlanePoint(2.5, 1.0), PlanePoint(-5.0, 0.5)]
    whole = sample_batch(starts, 100.0, seed=9)
    tail = sample_batch(starts[1:], 100.0, seed=9, first_index=1)
    assert whole[1].time == tail[0].time and whole[2].time == tail[1].time


# ---------------------------------------------------------------------------
# release_circle
# ---------------------------------------------------------------------------

def test_release_circle_geometry():
    pts = release_circle(7.0, 500, philox_stream(1, RELEASE_STREAM))
    assert len(pts) == 500
    for p in pts:
        assert_allclose(abs(p), 7.0, rtol=1e-12)


def test_release_circle_quarter_points():
    pts = release_circle(2.0, 4, _FakeRng([], uniforms=[0.0, 0.25, 0.5, 0.75]))
    assert_allclose([p.x for p in pts], [2.0, 0.0, -2.0, 0.0], atol=1e-12)
    assert_allclose([p.y for p in pts], [0.0, 2.0, 0.0, -2.0], atol=1e-12)


def test_release_circle_uniform_angles():
    pts = release_circle(1.0, 20000, philox_stream(3, RELEASE_STREAM))
    xs = np.array([p.x for p in pts])
    ys = np.array([p.y for p in pts])
    # CLT: means of cos/sin are 0 +- 1/sqrt(2n); allow 4 sigma
    bound = 4.0 / math.sqrt(2.0 * len(pts))
    assert abs(xs.mean()) < bound and abs(ys.mean()) < bound
    assert_allclose((xs**2 + ys**2), 1.0, rtol=1e-12)


def test_release_circle_validation():
    rng = philox_stream(0, RELEASE_STREAM)
    with pytest.raises(DomainError):
        release_circle(0.0, 5, rng)
    with pytest.raises(DomainError):
        release_circle(1.0, 0, rng)


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
    starts = release_circle(2.0, n, philox_stream(77, RELEASE_STREAM))
    records = sample_batch(starts, 1e10, seed=77)
    xs = records.x[~records.censored]
    assert len(xs) > 0.8 * n

    k = 20
    edges = -np.cos(np.pi * np.arange(k + 1) / k)  # equal arcsine mass
    counts, _ = np.histogram(xs, bins=edges)
    expected = len(xs) / k
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < st.chi2.ppf(1.0 - 1e-3, k - 1)
    assert abs(xs.mean()) < 4.0 / math.sqrt(2.0 * len(xs))  # symmetry


# ---------------------------------------------------------------------------
# survival_curve
# ---------------------------------------------------------------------------

def _records(*rows):
    """A record array from HittingRecords, the row type of RECORD_DTYPE."""
    assert all(isinstance(r, HittingRecord) for r in rows)
    return np.rec.fromrecords([(r.time, r.x, r.censored, r.steps) for r in rows], dtype=RECORD_DTYPE)


def _toy_records():
    return _records(
        HittingRecord(1.0, 0.0, False, 3),
        HittingRecord(2.0, 0.5, False, 1),
        HittingRecord(3.0, -1.0, False, 7),
        HittingRecord(10.5, math.nan, True, 4),
    )


def test_survival_curve_strict_counting():
    curve = survival_curve(_toy_records(), [0.5, 1.0, 2.5, 9.0], r=5.0)
    assert_allclose(curve.captured_fraction, [0.0, 0.0, 0.5, 0.75])
    assert curve.n == 4 and curve.release_radius == 5.0
    lo, hi = wilson_interval(np.array([0.0, 0.0, 2.0, 3.0]), 4)
    assert_allclose(curve.ci_low, lo, rtol=1e-14)
    assert_allclose(curve.ci_high, hi, rtol=1e-14)


def test_survival_curve_grid_validation():
    with pytest.raises(DomainError):
        survival_curve(_toy_records(), [2.0, 1.0], r=5.0)
    with pytest.raises(DomainError):
        survival_curve([], [1.0], r=5.0)
    # grid reaching past the cap (censored at 10.5) must be refused
    with pytest.raises(DomainError):
        survival_curve(_toy_records(), [1.0, 11.0], r=5.0)


def test_survival_curve_all_captured_allows_any_grid():
    records = _toy_records()[:3]
    curve = survival_curve(records, [100.0], r=5.0)
    assert curve.captured_fraction[0] == 1.0


# ---------------------------------------------------------------------------
# wilson_interval
# ---------------------------------------------------------------------------

def test_wilson_closed_form():
    z = 1.96
    lo, hi = wilson_interval(50.0, 100, z=z)
    denom = 1.0 + z * z / 100.0
    center = (0.5 + z * z / 200.0) / denom
    half = (z / denom) * math.sqrt(0.25 / 100.0 + z * z / 40000.0)
    assert_allclose([lo, hi], [center - half, center + half], rtol=1e-14)


def test_wilson_edge_cases():
    lo, hi = wilson_interval(0.0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.25
    lo, hi = wilson_interval(50.0, 50)
    assert 0.75 < lo < 1.0 and hi == 1.0


def test_wilson_vectorized_monotone():
    lo, hi = wilson_interval(np.arange(0, 101), 100)
    assert np.all(np.diff(lo) > -1e-15) and np.all(np.diff(hi) > -1e-15)
    assert np.all(lo <= hi)


# ---------------------------------------------------------------------------
# abelian_estimate
# ---------------------------------------------------------------------------

def test_abelian_hand_value():
    records = _records(
        HittingRecord(1.0, 0.0, False, 1),
        HittingRecord(4.0, 0.2, False, 2),
        HittingRecord(22.0, math.nan, True, 3),
    )
    est = abelian_estimate(records, tau=2.0)
    w1, w2, w3 = math.exp(-0.5), math.exp(-2.0), math.exp(-11.0)
    assert_allclose(est.mean_low, (w1 + w2) / 3.0, rtol=1e-14)
    assert_allclose(est.mean_high, (w1 + w2 + w3) / 3.0, rtol=1e-14)
    assert est.mean_low <= est.mean_high
    assert_allclose(est.midpoint, 0.5 * (est.mean_low + est.mean_high), rtol=1e-15)
    # half_width = 0.5 * (mean_high - mean_low) cancels two means ~0.25 to
    # extract a difference ~1.7e-5, so a few 1e-12 of relative noise is the
    # float floor here.
    assert_allclose(est.half_width, w3 / 6.0, rtol=1e-9)
    assert est.n == 3 and est.tau == 2.0


def test_abelian_no_censoring_collapses_bracket():
    records = _toy_records()[:3]
    est = abelian_estimate(records, tau=5.0)
    assert est.mean_low == est.mean_high
    assert est.half_width == 0.0
    assert est.std_error > 0.0


def test_abelian_bracket_width_bounded_by_cap():
    # every censored record has S > t_max, so the bracket width is at most
    # (#censored/n) exp(-t_max/tau)
    records = sample_batch([PlanePoint(0.0, 4.0)] * 300, 50.0, seed=13)
    est = abelian_estimate(records, tau=10.0)
    n_cens = records.censored.sum()
    assert est.mean_high - est.mean_low <= (n_cens / 300.0) * math.exp(-5.0) + 1e-15
    assert 0.0 <= est.mean_low <= est.mean_high <= 1.0


def test_abelian_validation():
    with pytest.raises(DomainError):
        abelian_estimate([], 1.0)
    with pytest.raises(DomainError):
        abelian_estimate(_toy_records(), 0.0)


def test_abelian_estimate_type():
    est = abelian_estimate(_toy_records(), 3.0)
    assert isinstance(est, AbelianEstimate)
    assert est.std_error > 0.0


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
