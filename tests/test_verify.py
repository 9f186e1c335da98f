"""Tests for the bound-report machinery in trapprob.verify.

Monte Carlo sizes here are deliberately small (n ~ a few thousand): the
goal is exercising the verdict plumbing and hypothesis gating, not
re-proving the bounds -- the acceptance suite does that at full size.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapprob.conformal import (
    PlanePoint,
    make_disk_trap,
    make_segment_trap,
)
from trapprob.disk_oracle import p_disk
from trapprob.errors import DomainError, HypothesisError
from trapprob.segment_sim import survival_curve
from trapprob.verify import (
    BoundReport,
    _report,
    check_theorem1,
    check_theorem2,
    conjecture_probe,
    figure_series,
    release_and_sample,
)

SEED = 11

# Unit segment [-1, 1]: d = 2, so the circle-averaged hypothesis needs
# tau > (e/2) * 4 ~ 5.4366; z = (5, 0) has R_z = 6, so the pointwise upper
# hypothesis needs tau > (e/2) * 36 ~ 48.93.
TAU_GATE_D = 0.5 * math.e * 4.0


@pytest.fixture(scope="module")
def segment():
    return make_segment_trap(-1.0, 1.0)


# ----------------------------------------------------------------------
# verdict bookkeeping


def test_report_verdict_branches():
    assert _report("x", 1.0, 2.0, 0.1).verdict == "holds"
    assert _report("x", 2.0, 2.0, 0.0).verdict == "holds"
    assert _report("x", 2.05, 2.0, 0.1).verdict == "holds_within_mc_error"
    assert _report("x", 3.0, 2.0, 0.1).verdict == "violated"


def test_report_fields():
    rep = _report("tag", 0.25, 1.0, 0.5)
    assert isinstance(rep, BoundReport)
    assert rep.label == "tag"
    assert_allclose(rep.margin, 0.75, rtol=1e-15)
    assert rep.statistical_slack == 0.5


# ----------------------------------------------------------------------
# circle-averaged bound


def test_release_and_sample_rejects_a_cap_that_overflows_in_the_unit_frame():
    # h = 5e-151: t_max = 1e10 is 4e310 in units of h^2, past the double
    # range; an infinite cap there would leave the walk uncapped
    tiny = make_segment_trap(0.0, 1e-150)
    with pytest.raises(DomainError, match="overflows"):
        release_and_sample(tiny, 1e-149, 10, 1e10, seed=1)
    assert len(release_and_sample(tiny, 1e-149, 10, 1e-300, seed=1)) == 10


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_theorems_reject_a_non_finite_tau(segment, tau):
    with pytest.raises(DomainError, match="tau must be finite"):
        check_theorem1(segment, 5.0, tau, 10, SEED)
    with pytest.raises(DomainError, match="tau must be finite"):
        check_theorem2(segment, PlanePoint(5.0, 0.0), tau, 10, SEED)


def test_theorem2_far_point_does_not_overflow(segment):
    # R_z ~ 1e200: its square is past the double range, so only the lower
    # side's hypothesis can hold
    lower, upper = check_theorem2(segment, PlanePoint(1e200, 0.0), 1e300, 10, SEED)
    assert upper is None and lower is not None
    assert math.isfinite(lower.lhs) and math.isfinite(lower.rhs)


def test_theorem1_disk_self_test():
    # For a disk trap the sampler is bypassed: lhs and slack are exactly 0.
    trap = make_disk_trap(1.5)
    rep = check_theorem1(trap, 4.0, 40.0, 10, seed=0)
    assert rep.lhs == 0.0
    assert rep.statistical_slack == 0.0
    assert rep.verdict == "holds"
    assert rep.rhs > 0.0


def test_theorem1_segment_holds(segment):
    rep = check_theorem1(segment, 5.0, 120.0, 4000, seed=SEED)
    assert rep.verdict in ("holds", "holds_within_mc_error")
    # rhs is the closed form 2.9 (d^2 / tau) f_disk, independent of the MC run
    from trapprob.disk_oracle import f_disk

    assert_allclose(rep.rhs, 2.9 * 4.0 / 120.0 * f_disk(5.0, 0.5, 120.0), rtol=1e-14)
    assert rep.statistical_slack > 0.0
    assert "theorem1" in rep.label


def test_theorem1_hypothesis_gate_tau(segment):
    with pytest.raises(HypothesisError):
        check_theorem1(segment, 5.0, TAU_GATE_D * 0.999, 100, seed=0)
    # strictly-greater gate: equality is also rejected
    with pytest.raises(HypothesisError):
        check_theorem1(segment, 5.0, TAU_GATE_D, 100, seed=0)


def test_theorem1_hypothesis_gate_radius(segment):
    with pytest.raises(HypothesisError):
        check_theorem1(segment, 0.5, 120.0, 100, seed=0)


def test_theorem1_deterministic(segment):
    a = check_theorem1(segment, 5.0, 120.0, 1500, seed=SEED)
    b = check_theorem1(segment, 5.0, 120.0, 1500, seed=SEED)
    assert a == b


# ----------------------------------------------------------------------
# pointwise sandwich


def test_theorem2_both_sides(segment):
    lower, upper = check_theorem2(segment, PlanePoint(5.0, 0.0), 1000.0, 4000, seed=SEED)
    assert lower is not None and upper is not None
    assert lower.verdict in ("holds", "holds_within_mc_error")
    assert upper.verdict in ("holds", "holds_within_mc_error")
    assert "theorem2-lower" in lower.label
    assert "theorem2-upper" in upper.label
    # the two sides share the same MC estimate, so lower.rhs == upper.lhs
    assert lower.rhs == upper.lhs
    assert lower.statistical_slack == upper.statistical_slack


def test_theorem2_lower_only(segment):
    # tau between (e/2) d^2 ~ 5.44 and (e/2) R_z^2 ~ 48.9 at z = (5, 0)
    lower, upper = check_theorem2(segment, PlanePoint(5.0, 0.0), 20.0, 2000, seed=SEED)
    assert lower is not None
    assert upper is None


def test_theorem2_upper_only(segment):
    # close point: R_z = sqrt(1.01) so the upper gate is ~1.37 while the
    # circle-averaged gate stays at 5.44
    z = PlanePoint(0.0, 0.1)
    lower, upper = check_theorem2(segment, z, 3.0, 2000, seed=SEED)
    assert lower is None
    assert upper is not None


def test_theorem2_neither_side_raises(segment):
    with pytest.raises(HypothesisError):
        check_theorem2(segment, PlanePoint(5.0, 0.0), 1.0, 100, seed=0)


def test_theorem2_disk_self_test():
    trap = make_disk_trap(1.0)
    lower, upper = check_theorem2(trap, PlanePoint(3.0, 0.0), 100.0, 10, seed=0)
    assert lower.statistical_slack == 0.0
    # mid is the exact disk value, so both sides must hold outright
    assert lower.verdict == "holds"
    assert upper.verdict == "holds"


def test_theorem2_sandwich_is_consistent(segment):
    # lower.lhs <= upper.rhs always (the sandwich has positive width)
    lower, upper = check_theorem2(segment, PlanePoint(5.0, 0.0), 1000.0, 1000, seed=SEED)
    assert lower.lhs < upper.rhs


# ----------------------------------------------------------------------
# exploratory probe and figure rows


def test_conjecture_probe_rows(segment):
    times = [0.5, 5.0, 50.0]
    rows = conjecture_probe(segment, [1.0, 5.0], times, 1000, seed=3)
    assert len(rows) == len(times)
    keys = {
        "t",
        "sup_rel_capture",
        "sup_rel_survival",
        "max_ci_halfwidth",
        "skipped_capture",
        "skipped_survival",
    }
    for row, t in zip(rows, times):
        assert set(row) == keys
        assert row["t"] == t
        assert row["sup_rel_capture"] >= 0.0
        assert row["sup_rel_survival"] >= 0.0
        assert row["max_ci_halfwidth"] > 0.0


def _probe_cell_by_cell(trap, radii, times, n, seed):
    """conjecture_probe's reductions as one scalar branch per (time, radius) cell."""
    h = 0.5 * (trap.b - trap.a)
    curves = [
        survival_curve(release_and_sample(trap, r, n, times[-1], seed, first_index=k * n), np.divide(times, h * h), r)
        for k, r in enumerate(radii)
    ]
    rows = []
    for j, t in enumerate(times):
        row = dict(t=t, sup_rel_capture=0.0, sup_rel_survival=0.0, max_ci_halfwidth=0.0,
                   skipped_capture=0, skipped_survival=0)
        for r, curve in zip(radii, curves):
            prop = curve.captured_fraction[j]
            half = 0.5 * (curve.ci_high[j] - curve.ci_low[j])
            row["max_ci_halfwidth"] = max(row["max_ci_halfwidth"], half)
            pd = p_disk(r, trap.r_T, t)
            diff = abs(prop - pd)
            if pd > 1e-12:
                row["sup_rel_capture"] = max(row["sup_rel_capture"], diff / pd)
            elif prop != 0.0:
                row["skipped_capture"] += 1
            if 1.0 - pd >= 10.0 * half:
                row["sup_rel_survival"] = max(row["sup_rel_survival"], diff / (1.0 - pd))
            else:
                row["skipped_survival"] += 1
        rows.append(row)
    return rows


def test_conjecture_probe_equals_a_cell_by_cell_loop():
    # on [-3, 1] the circle r = r0 = 3 touches the end -3, so short times
    # have captures where p_disk < 1e-12 (skipped), long ones skip survival
    trap = make_segment_trap(-3.0, 1.0)
    times = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0]
    rows = conjecture_probe(trap, [3.0, 9.0], times, 300, seed=2)
    assert rows == _probe_cell_by_cell(trap, [3.0, 9.0], times, 300, 2)
    assert sum(row["skipped_capture"] for row in rows) > 0
    assert sum(row["skipped_survival"] for row in rows) > 0


def test_conjecture_probe_radius_gate(segment):
    with pytest.raises(DomainError):
        conjecture_probe(segment, [0.25, 5.0], [1.0], 100, seed=0)


def test_figure_series_shape_and_bands():
    t_grid = [0.5, 5.0, 50.0]
    rows = figure_series(radii=(1.0, 5.0), t_grid=t_grid, n=500, seed=3)
    assert len(rows) == 6
    # ordered by radius, then time
    assert [r["r"] for r in rows] == [1.0] * 3 + [5.0] * 3
    assert [r["t"] for r in rows[:3]] == t_grid
    for row in rows:
        assert row["ci_lo"] <= row["prop"] <= row["ci_hi"]
        assert 0.0 <= row["p_disk"] <= 1.0
        assert_allclose(row["surv"], 1.0 - row["prop"], rtol=0, atol=1e-15)
        assert_allclose(row["surv_ci_lo"], 1.0 - row["ci_hi"], rtol=0, atol=1e-15)


def test_figure_series_deterministic():
    kw = dict(radii=(1.0, 5.0), t_grid=[0.5, 5.0], n=400, seed=9)
    assert figure_series(**kw) == figure_series(**kw)


def test_figure_series_matches_oracle_at_late_time():
    # at t = 50 from r = 1 the capture probability is high and the disk
    # surrogate should sit inside (or graze) the Wilson band
    rows = figure_series(radii=(1.0,), t_grid=[50.0], n=4000, seed=SEED)
    row = rows[0]
    assert row["ci_lo"] - 0.02 <= row["p_disk"] <= row["ci_hi"] + 0.02
