"""Tests for the bound-report machinery in trapprob.verify.

Monte Carlo sizes here are deliberately small (n ~ a few thousand): the
goal is exercising the verdict plumbing and hypothesis gating, not
re-proving the bounds -- the acceptance suite does that at full size.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import trapprob.verify

from trapprob.conformal import (
    PlanePoint,
    green_segment,
    make_segment_trap,
)
from trapprob.disk_oracle import f_disk, p_disk
from trapprob.errors import CapacityError, DomainError, HypothesisError
from trapprob.segment_sim import release_circle, sample_batch, survival_curve
from trapprob.specfun import GAMMA
from trapprob.verify import (
    WALK_CHUNK,
    BoundReport,
    _report,
    _theorem1_reports,
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


def test_release_and_sample_on_a_tiny_segment_takes_any_cap():
    # h = 5e-151: t_max = 1e10 is 4e310 in units of h^2, past the double
    # range, but the walk compares times with the cap in the trap's own
    # units; all 10 walks hit the trap, within 113 steps
    tiny = make_segment_trap(0.0, 1e-150)
    records = release_and_sample(tiny, 1e-149, 10, 1e10, seed=1)
    assert len(records) == 10 and not records.censored.any()
    assert len(release_and_sample(tiny, 1e-149, 10, 1e-300, seed=1)) == 10


@pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, 0, pytest.param(10**400, id="10**400")])
def test_theorems_reject_a_bad_trajectory_count(segment, n):
    # 2.5 walks cannot run, and truncating to 2 would mislabel the report
    with pytest.raises(DomainError, match="trajectory count"):
        check_theorem1(segment, 5.0, 100.0, n, SEED)
    with pytest.raises(DomainError, match="trajectory count"):
        check_theorem2(segment, 5.0, 0.0, 100.0, n, SEED)


@pytest.mark.parametrize("tau", [math.inf, -math.inf, math.nan])
def test_theorems_reject_a_non_finite_tau(segment, tau):
    with pytest.raises(DomainError, match="tau must be finite"):
        check_theorem1(segment, 5.0, tau, 10, SEED)
    with pytest.raises(DomainError, match="tau must be finite"):
        check_theorem2(segment, 5.0, 0.0, tau, 10, SEED)


@pytest.mark.parametrize("seed", [2.0, 1.5, "0", None])
def test_theorems_reject_a_seed_that_is_not_an_integer(segment, seed):
    with pytest.raises(DomainError, match="seed"):
        check_theorem1(segment, 5.0, 120.0, 10, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        check_theorem2(segment, 5.0, 0.0, 120.0, 10, seed=seed)


def test_theorem2_far_point_does_not_overflow(segment):
    # R_z ~ 1e200: its square is past the double range, so only the lower
    # side's hypothesis can hold
    lower, upper = check_theorem2(segment, 1e200, 0.0, 1e300, 10, SEED)
    assert upper is None and lower is not None
    assert math.isfinite(lower.lhs) and math.isfinite(lower.rhs)


def test_theorem2_at_the_edge_of_the_double_range(segment):
    # phi(z) ~ 2z passes the double range here; the lower side must still
    # compare a finite left side, not -inf
    lower, upper = check_theorem2(segment, 1e308, 1e308, 1e300, 10, SEED)
    assert upper is None
    base = 1.0 - 2.0 * math.pi * green_segment(1e308, 1e308) / math.log(1e300 / segment.tau0)
    assert math.isfinite(lower.lhs) and lower.lhs == base - 0.8 * 4.0 / 1e300
    assert lower.verdict == "holds"


def test_theorem2_refuses_a_point_whose_r_z_passes_the_double_range(segment):
    # both sides used to be checked against R_z = inf: the upper one was
    # dropped in silence and the lower one read "holds"
    with pytest.raises(DomainError, match="passes the double range"):
        check_theorem2(segment, 1.7e308, 1.7e308, 1e300, 10, SEED)


def test_theorem1_segment_holds(segment):
    rep = check_theorem1(segment, 5.0, 120.0, 4000, seed=SEED)
    assert rep.verdict in ("holds", "holds_within_mc_error")
    # rhs is the closed form 2.9 (d^2 / tau) f_disk, independent of the MC run
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


@pytest.mark.parametrize("radii", [[1.0, 5.0, 25.0, 125.0], [6.0], [125.0, 1.0, 1.0]])
def test_theorem1_many_radii_walk_once(segment, monkeypatch, radii):
    # the walk does not depend on r: one walk from r0 serves every radius,
    # and each report is its single-radius call bit for bit
    walks = []
    walk = trapprob.verify.release_and_sample

    def counting_walk(*args):
        walks.append(args[1:])
        return walk(*args)

    alone = [check_theorem1(segment, r, 120.0, 1500, SEED) for r in radii]
    monkeypatch.setattr(trapprob.verify, "release_and_sample", counting_walk)
    reports = _theorem1_reports(segment, radii, 120.0, 1500, SEED)
    assert reports == alone
    assert walks == [(segment.r0, 1500, trapprob.verify.TMAX_OVER_TAU * 120.0, SEED)]


def test_theorem1_many_radii_checks_every_radius_before_the_walk(segment, monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(trapprob.verify, "release_and_sample", no_walk)
    with pytest.raises(HypothesisError, match="release radius 0.5 is below r0"):
        _theorem1_reports(segment, [5.0, 25.0, 0.5], 120.0, 100, SEED)
    with pytest.raises(DomainError, match="r must be finite"):
        _theorem1_reports(segment, [5.0, math.inf], 120.0, 100, SEED)


def _abelian_mean(trap, r, tau, n, seed):
    """Mean of exp(-T/tau) over n walks released at radius r, and its
    standard error (a censored walk, at most e^-20, counts 0)."""
    records = release_and_sample(trap, r, n, trapprob.verify.TMAX_OVER_TAU * tau, seed)
    weights = np.where(records.censored, 0.0, np.exp(-records.time / tau))
    return float(weights.mean()), float(weights.std(ddof=1)) / math.sqrt(n)


@pytest.mark.parametrize("r", [5.0, 25.0])
def test_theorem1_radius_transfer_agrees_with_direct_release(segment, r):
    # a walk from the circle of radius r reaches the circle of radius
    # r0 = 1 at a uniform point independent of when, so its mean is
    # f_disk(r, r0, tau) times the mean from r0; the direct release uses
    # its own seed
    tau, n = 120.0, 20000
    transfer = f_disk(r, segment.r0, tau)
    m0, se0 = _abelian_mean(segment, segment.r0, tau, n, seed=1)
    m, se = _abelian_mean(segment, r, tau, n, seed=2)
    assert abs(transfer * m0 - m) <= 4.0 * math.hypot(transfer * se0, se)
    # check_theorem1 scales the r0 bracket by the same factor
    rep = check_theorem1(segment, r, tau, n, seed=1)
    at_r0 = check_theorem1(segment, segment.r0, tau, n, seed=1)
    assert rep.statistical_slack == transfer * at_r0.statistical_slack
    assert abs(rep.lhs - abs(transfer * m0 - f_disk(r, segment.r_T, tau))) <= 1e-6 * transfer
    assert "released at r0=1 " in rep.label


@pytest.mark.parametrize(
    "a, b, r, tau",
    [(-1.0, 1.0, 1.0, 6.0), (-1.0, 1.0, 5.0, 120.0), (-1.0, 1.0, 125.0, 5.98), (2.0, 6.0, 8.0, 40.0), (-3.0, 0.5, 40.0, 1e3)],
)
def test_f_disk_transfers_through_r0(a, b, r, tau):
    # K0(k r)/K0(k r_T) = K0(k r)/K0(k r0) * K0(k r0)/K0(k r_T); at r = r0
    # the factor is exactly 1
    trap = make_segment_trap(a, b)
    transfer = f_disk(r, trap.r0, tau)
    assert_allclose(f_disk(r, trap.r_T, tau), transfer * f_disk(trap.r0, trap.r_T, tau), rtol=1e-13)
    assert (transfer == 1.0) == (r == trap.r0)


# ----------------------------------------------------------------------
# pointwise sandwich


def test_theorem2_both_sides(segment):
    lower, upper = check_theorem2(segment, 5.0, 0.0, 1000.0, 4000, seed=SEED)
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
    lower, upper = check_theorem2(segment, 5.0, 0.0, 20.0, 2000, seed=SEED)
    assert lower is not None
    assert upper is None


def test_theorem2_upper_only(segment):
    # close point: R_z = sqrt(1.01) so the upper gate is ~1.37 while the
    # circle-averaged gate stays at 5.44
    lower, upper = check_theorem2(segment, 0.0, 0.1, 3.0, 2000, seed=SEED)
    assert lower is None
    assert upper is not None


def test_theorem2_neither_side_raises(segment):
    with pytest.raises(HypothesisError):
        check_theorem2(segment, 5.0, 0.0, 1.0, 100, seed=0)


def test_theorem2_disk_self_test():
    # The theorem-2 sandwich on the exact disk of radius R = 1, no sampler:
    # there d = 2R, R_z = |z| + R, H(z) = ln(|z|/R)/pi, and f_disk(|z|, R,
    # tau) is the exact pointwise mean, which must lie between
    # 1 - 2 ln(|z|/R)/ln(tau/tau0) -+ 0.8 d^2/tau (resp. 0.8 R_z^2/tau)
    # at 60 tau up to 1e12, wherever that side's hypothesis holds
    radius = 1.0
    tau0 = 0.5 * math.exp(2.0 * GAMMA) * radius * radius
    d2 = (2.0 * radius) ** 2
    taus = np.logspace(math.log10(0.5 * math.e * d2) + 1e-9, 12.0, 60).tolist()
    for r in (1.0001, 1.5, 3.0, 10.0, 100.0):
        rz2 = (r + radius) ** 2
        upper_sides = 0
        for tau in taus:
            mid = f_disk(r, radius, tau)
            base = 1.0 - 2.0 * math.log(r / radius) / math.log(tau / tau0)
            assert base - 0.8 * d2 / tau <= mid, (r, tau)
            if tau > 0.5 * math.e * rz2:
                assert mid <= base + 0.8 * rz2 / tau, (r, tau)
                upper_sides += 1
        assert upper_sides >= 40, r


def test_theorem2_sandwich_is_consistent(segment):
    # lower.lhs <= upper.rhs always (the sandwich has positive width)
    lower, upper = check_theorem2(segment, 5.0, 0.0, 1000.0, 1000, seed=SEED)
    assert lower.lhs < upper.rhs


# ----------------------------------------------------------------------
# exploratory probe and figure rows


def test_conjecture_probe_rows(segment):
    times = [0.5, 5.0, 50.0]
    table = conjecture_probe(segment, [1.0, 5.0], times, 1000, seed=3)
    keys = [
        "t",
        "sup_rel_capture",
        "sup_rel_survival",
        "max_ci_halfwidth",
        "skipped_capture",
        "skipped_survival",
    ]
    assert list(table) == keys
    assert all(len(column) == len(times) for column in table.values())
    assert table["t"] == times
    assert min(table["sup_rel_capture"]) >= 0.0
    assert min(table["sup_rel_survival"]) >= 0.0
    assert min(table["max_ci_halfwidth"]) > 0.0


def _probe_cell_by_cell(trap, radii, times, n, seed):
    """conjecture_probe's reductions as one scalar branch per (time, radius) cell."""
    records = _per_radius_records(trap, radii, n, times[-1], seed)
    curves = [survival_curve(records[k * n : (k + 1) * n], times) for k in range(len(radii))]
    table = {}
    for j, t in enumerate(times):
        row = dict(t=t, sup_rel_capture=0.0, sup_rel_survival=0.0, max_ci_halfwidth=0.0,
                   skipped_capture=0, skipped_survival=0)
        for r, (captured_fraction, ci_low, ci_high) in zip(radii, curves):
            prop = captured_fraction[j]
            half = 0.5 * (ci_high[j] - ci_low[j])
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
        for key, value in row.items():
            table.setdefault(key, []).append(value)
    return table


def test_conjecture_probe_equals_a_cell_by_cell_loop():
    # on [-3, 1] the circle r = r0 = 3 touches the end -3, so short times
    # have captures where p_disk < 1e-12 (skipped), long ones skip survival
    trap = make_segment_trap(-3.0, 1.0)
    times = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1000.0]
    table = conjecture_probe(trap, [3.0, 9.0], times, 300, seed=2)
    assert table == _probe_cell_by_cell(trap, [3.0, 9.0], times, 300, 2)
    assert sum(table["skipped_capture"]) > 0
    assert sum(table["skipped_survival"]) > 0


def test_conjecture_probe_radius_gate(segment):
    with pytest.raises(DomainError):
        conjecture_probe(segment, [0.25, 5.0], [1.0], 100, seed=0)


@pytest.mark.parametrize(
    "grid, message",
    [([], "non-empty 1-d grid"), ([10.0, 1.0], "ascending"), ([1.0, math.nan], "finite"), ([math.nan, 1.0], "finite")],
)
def test_time_grids_are_checked_before_any_walk(segment, monkeypatch, grid, message):
    walks = []
    monkeypatch.setattr(trapprob.verify, "release_and_sample", lambda *args, **kwargs: walks.append(args))
    with pytest.raises(DomainError, match=message):
        figure_series(radii=(1.0, 5.0), t_grid=grid, n=10, seed=0)
    with pytest.raises(DomainError, match=message):
        conjecture_probe(segment, [1.0, 5.0], grid, 10, 0)
    assert walks == []


def test_non_positive_grid_times_are_refused_before_any_walk(segment, monkeypatch):
    # the figures refuse t <= 0 with hunt_approx's message, the probe t < 0
    # with p_disk's; both before the first walk
    walks = []
    monkeypatch.setattr(trapprob.verify, "release_and_sample", lambda *args, **kwargs: walks.append(args))
    for grid in ([0.0, 10.0], [-1.0, 10.0]):
        with pytest.raises(DomainError, match=r"^time must be positive, got"):
            figure_series(radii=(1.0, 5.0), t_grid=grid, n=10, seed=0)
    with pytest.raises(DomainError, match=r"^time must be >= 0, got -1.0$"):
        conjecture_probe(segment, [1.0, 5.0], [-1.0, 10.0], 10, 0)
    assert walks == []


def test_bad_radius_lists_are_refused_before_any_walk(segment, monkeypatch):
    walks = []
    monkeypatch.setattr(trapprob.verify, "release_and_sample", lambda *args, **kwargs: walks.append(args))
    for call in (lambda: figure_series(radii=[], t_grid=[1.0, 10.0], n=10, seed=0),
                 lambda: conjecture_probe(segment, [], [1.0, 10.0], 10, 0)):
        with pytest.raises(DomainError, match="number of release radii must be an integer >= 1, got 0"):
            call()
    # a radius <= 0 gets the disk oracle's rule, as one inside the disk does
    with pytest.raises(DomainError, match=r"^release radius 0.0 inside the disk of radius 0.5$"):
        figure_series(radii=(1.0, 0.0), t_grid=[1.0, 10.0], n=10, seed=0)
    assert walks == []


def test_figure_series_shape_and_bands():
    t_grid = [0.5, 5.0, 50.0]
    table = figure_series(radii=(1.0, 5.0), t_grid=t_grid, n=500, seed=3)
    assert all(len(column) == 6 for column in table.values())
    # ordered by radius, then time
    assert table["r"] == [1.0] * 3 + [5.0] * 3
    assert table["t"][:3] == t_grid
    columns = ("ci_lo", "prop", "ci_hi", "p_disk", "surv", "surv_ci_lo")
    for ci_lo, prop, ci_hi, pd, surv, surv_ci_lo in zip(*(table[key] for key in columns)):
        assert ci_lo <= prop <= ci_hi
        assert 0.0 <= pd <= 1.0
        assert_allclose(surv, 1.0 - prop, rtol=0, atol=1e-15)
        assert_allclose(surv_ci_lo, 1.0 - ci_hi, rtol=0, atol=1e-15)


def test_figure_series_deterministic():
    kw = dict(radii=(1.0, 5.0), t_grid=[0.5, 5.0], n=400, seed=9)
    assert figure_series(**kw) == figure_series(**kw)


def test_figure_series_matches_oracle_at_late_time():
    # at t = 50 from r = 1 the capture probability is high and the disk
    # surrogate should sit inside (or graze) the Wilson band
    table = figure_series(radii=(1.0,), t_grid=[50.0], n=4000, seed=SEED)
    assert table["ci_lo"][0] - 0.02 <= table["p_disk"][0] <= table["ci_hi"][0] + 0.02


# ----------------------------------------------------------------------
# one walk per capture table


def _per_radius_records(trap, radii, n, t_max, seed):
    """release_and_sample's records from one release_circle and one
    sample_batch per radius, radius k from trajectory k*n on."""
    return np.concatenate([
        sample_batch(trap, release_circle(r, n, seed, k * n), t_max, seed, first_index=k * n)
        for k, r in enumerate(radii)
    ]).view(np.recarray)


def _one_batch(trap, radii, n, t_max, seed):
    """The same records from a single sample_batch over every radius."""
    starts = [p for k, r in enumerate(radii) for p in release_circle(r, n, seed, k * n)]
    return sample_batch(trap, starts, t_max, seed)


def _assert_same_fields(got, want):
    assert len(got) == len(want)
    for field in ("time", "x", "censored", "steps"):
        assert np.array_equal(got[field], want[field], equal_nan=field == "x"), field


def test_release_and_sample_returns_the_unit_walk_in_the_trap_units(segment):
    # on [2, 6] (c = 4, h = 2) every length is the unit one times a power of
    # two, which is exact: the walk is the [-1, 1] walk of the mapped starts
    # with times x4 and abscissae x -> 4 + 2x, bit for bit
    trap = make_segment_trap(2.0, 6.0)
    records = release_and_sample(trap, 9.0, 800, 60.0, 3)
    unit_starts = [PlanePoint((p.x - 4.0) / 2.0, p.y / 2.0) for p in release_circle(9.0, 800, 3)]
    unit = sample_batch(segment, unit_starts, 15.0, 3)
    unit.time = 4.0 * unit.time
    unit.x = 4.0 + 2.0 * unit.x
    _assert_same_fields(records, unit)
    hit = ~records.censored
    assert 0 < hit.sum() < len(records)
    assert np.all((records.x[hit] >= 2.0) & (records.x[hit] <= 6.0))


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-3.0, 2.5)])
def test_capture_tables_equal_a_per_radius_loop(monkeypatch, a, b):
    trap = make_segment_trap(a, b)
    radii = [trap.r0, 4.0, 11.0]
    times = [0.05, 0.5, 5.0, 50.0]
    _assert_same_fields(release_and_sample(trap, radii, 700, 50.0, 4), _per_radius_records(trap, radii, 700, 50.0, 4))
    probe = conjecture_probe(trap, radii, times, 700, seed=4)
    figures = figure_series(radii=radii, t_grid=times, n=700, seed=4) if (a, b) == (-1.0, 1.0) else None
    monkeypatch.setattr(trapprob.verify, "release_and_sample", _per_radius_records)
    assert conjecture_probe(trap, radii, times, 700, seed=4) == probe
    if figures is not None:
        assert figure_series(radii=radii, t_grid=times, n=700, seed=4) == figures


def _spy(monkeypatch, name, sizes):
    """Wrap trapprob.verify's ``name``; record the size of each call."""
    inner = getattr(trapprob.verify, name)

    def spy(*args, **kwargs):
        sizes.append(len(args[1]) if name == "sample_batch" else args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(trapprob.verify, name, spy)


def test_chunks_cut_inside_a_radius_and_change_no_record(monkeypatch):
    # chunks of 1000 at n = 2500: the chunk [2000, 3000) holds the end of
    # radius 0 and the start of radius 1
    trap = make_segment_trap(-3.0, 2.5)
    want = _one_batch(trap, [3.0, 8.0], 2500, 200.0, 6)
    monkeypatch.setattr(trapprob.verify, "WALK_CHUNK", 1000)
    walks, releases = [], []
    _spy(monkeypatch, "sample_batch", walks)
    _spy(monkeypatch, "release_circle", releases)
    _assert_same_fields(release_and_sample(trap, [3.0, 8.0], 2500, 200.0, 6), want)
    assert walks == [1000] * 5
    assert releases == [1000, 1000, 500, 500, 1000, 1000]


@pytest.mark.parametrize("call, walked", [("figures", 80000), ("probe", 80000), ("theorem1", 70000), ("theorem2", 70000)])
def test_no_walk_exceeds_the_chunk(monkeypatch, segment, call, walked):
    walks = []
    _spy(monkeypatch, "sample_batch", walks)
    runs = {
        "figures": lambda: figure_series(radii=(1.0, 5.0), t_grid=[1.0, 10.0], n=40000, seed=1),
        "probe": lambda: conjecture_probe(segment, [1.0, 5.0], [1.0, 10.0], 40000, 1),
        "theorem1": lambda: check_theorem1(segment, 5.0, 6.0, 70000, 1),
        "theorem2": lambda: check_theorem2(segment, 0.0, 0.5, 6.0, 70000, 1),
    }
    runs[call]()
    assert walks == [WALK_CHUNK, walked - WALK_CHUNK]


@pytest.mark.parametrize(
    "radii, message",
    [
        ([], "number of release radii must be an integer >= 1, got 0"),
        (0.0, "release radius must be positive and finite, got 0.0"),
        ([5.0, -1.0], "release radius must be positive and finite, got -1.0"),
        ([5.0, math.nan], "release radius must be positive and finite, got nan"),
        ([5.0, math.inf], "release radius must be positive and finite, got inf"),
    ],
)
def test_release_and_sample_checks_every_radius_before_any_walk(monkeypatch, segment, radii, message):
    calls = []
    _spy(monkeypatch, "sample_batch", calls)
    _spy(monkeypatch, "release_circle", calls)
    with pytest.raises(DomainError, match=f"^{message}$"):
        release_and_sample(segment, radii, 10, 100.0, 0)
    assert calls == []


def test_a_radius_past_the_double_range_is_refused_before_the_first_chunk(monkeypatch, segment):
    # with n above the chunk, radius 0 is walked before release_circle ever
    # sees radius 1, so the radius check itself must refuse 10**400
    monkeypatch.setattr(trapprob.verify, "WALK_CHUNK", 2)
    walks = []
    _spy(monkeypatch, "sample_batch", walks)
    with pytest.raises(DomainError, match="release radii must be a sequence of real numbers in the double range"):
        release_and_sample(segment, [1.0, 10**400], 3, 100.0, 0)
    assert walks == []


@pytest.mark.parametrize("n", [10**15, 10**19])
def test_an_impossible_trajectory_count_is_refused_before_any_walk(monkeypatch, segment, n):
    # numpy refuses records for 10**15 walks (22 PiB) without allocating
    # them, and 10**19 as past its largest dimension
    calls = []
    _spy(monkeypatch, "sample_batch", calls)
    _spy(monkeypatch, "release_circle", calls)
    runs = [
        lambda: release_and_sample(segment, 5.0, n, 100.0, 0),
        lambda: check_theorem1(segment, 5.0, 120.0, n, 0),
        lambda: check_theorem2(segment, 5.0, 0.0, 120.0, n, 0),
        lambda: figure_series(radii=(1.0, 5.0), t_grid=[1.0, 10.0], n=n, seed=0),
        lambda: conjecture_probe(segment, [1.0, 5.0], [1.0, 10.0], n, 0),
    ]
    for run, count in zip(runs, (n, n, n, 2 * n, 2 * n)):
        with pytest.raises(CapacityError, match=f"^{count} trajectories are too many: their records do not fit in memory$"):
            run()
    assert calls == []
