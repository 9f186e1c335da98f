"""Numerical exercises of the quantitative approximation bounds.

Each check compares a Monte Carlo quantity from the segment sampler against
the disk-oracle closed forms and packages the comparison as a
:class:`BoundReport`: left side, right side, margin, and a verdict that
tolerates Monte Carlo noise explicitly (3 standard errors plus the full
censoring bracket) rather than by silent fudge factors.

The two theorem checks:

* circle-averaged Abelian means: |f_hat - f_disk| <= 2.9 (d^2/tau) f_disk,
  valid for tau > (e/2) d^2 and release radii >= r0;
* pointwise Abelian means: F_hat sandwiched between
  1 - 2 pi H(z)/ln(tau/tau0) -+ 0.8 d^2/tau (resp. 0.8 R_z^2/tau), each
  side valid under its own hypothesis on tau.

Simulations run on the normalized segment; a general segment [a, b] is
handled by the affine change of variables (lengths /h, times /h^2, with
h the half-length), under which the Green's function and the Abelian
weights are exactly invariant.
"""

import math
from dataclasses import dataclass

import numpy as np

from trapprob.conformal import PlanePoint, green_segment, make_segment_trap, r_z
from trapprob.disk_oracle import f_disk, hunt_approx, p_disk
from trapprob.errors import DomainError, HypothesisError
from trapprob.segment_sim import abelian_estimate, release_circle, sample_batch, survival_curve

# Cap the simulated horizon at this multiple of tau: the censoring bracket
# exp(-t_max/tau) = exp(-20) ~ 2e-9 is then negligible against MC noise.
TMAX_OVER_TAU = 20.0

# Verdicts tolerate this many standard errors on top of the censoring bracket.
SLACK_SIGMAS = 3.0

DEFAULT_RADII = (1.0, 5.0, 25.0, 125.0)


@dataclass(frozen=True)
class BoundReport:
    """One bound comparison: verdict is "holds" iff margin = rhs - lhs >= 0,
    "holds_within_mc_error" iff margin >= -statistical_slack, else
    "violated"."""

    label: str
    lhs: float
    rhs: float
    margin: float
    statistical_slack: float
    verdict: str


def _report(label, lhs, rhs, slack):
    margin = rhs - lhs
    if margin >= 0.0:
        verdict = "holds"
    elif margin >= -slack:
        verdict = "holds_within_mc_error"
    else:
        verdict = "violated"
    return BoundReport(label, float(lhs), float(rhs), float(margin), float(slack), verdict)


def _frame(trap):
    """Centre c and half-length h of a segment trap; z -> ((x - c)/h, y/h)
    maps it onto the normalized segment [-1, 1]."""
    return 0.5 * (trap.a + trap.b), 0.5 * (trap.b - trap.a)


def _unit_time(t, h):
    """A time in units of h^2, the walk's frame.  DomainError where a
    finite time overflows there, which would make a capped walk uncapped."""
    unit = t / (h * h)
    if unit == math.inf and t < math.inf:
        raise DomainError(f"time {t!r} overflows in units of the half-length squared {h * h!r}")
    return unit


def _normalize(trap, p):
    c, h = _frame(trap)
    return PlanePoint((p.x - c) / h, p.y / h)


def _green(trap, z):
    """Green's function with pole at infinity, either trap kind."""
    if trap.kind == "segment":
        return green_segment(_normalize(trap, z))
    if trap.kind == "disk":
        rr = abs(z)
        if rr <= trap.radius:
            return 0.0
        return math.log(rr / trap.radius) / math.pi
    raise DomainError(f"unknown trap kind {trap.kind!r}")


def release_and_sample(trap, r, n, t_max, seed, first_index=0):
    """Simulate n trajectories released uniformly on the circle of radius r
    (origin centre) against a segment trap, capped at time t_max.

    Trajectory i has index ``first_index + i`` for both its release point
    and its walk, so chunks with their offsets reproduce the whole batch.
    The walk runs in the segment's unit frame, so the returned record array
    holds times in units of h^2 and hit abscissae in unit-frame coordinates
    (h the half-length).
    """
    starts = release_circle(r, n, seed, first_index)
    c, h = _frame(trap)
    if (c, h) != (0.0, 1.0):  # on [-1, 1] the frame map is the identity
        starts = [_normalize(trap, p) for p in starts]
    return sample_batch(starts, _unit_time(t_max, h), seed, first_index=first_index)


def _abelian_mc(trap, start, tau, n, seed):
    """Midpoint and statistical slack of the Monte Carlo Abelian mean for a
    segment trap, in original time units.

    ``start`` is either a fixed PlanePoint (all trajectories from one point)
    or a release radius (uniform on that circle).
    """
    h = _frame(trap)[1]
    t_max = TMAX_OVER_TAU * tau
    if isinstance(start, PlanePoint):
        records = sample_batch([_normalize(trap, start)] * n, _unit_time(t_max, h), seed)
    else:
        records = release_and_sample(trap, start, n, t_max, seed)
    est = abelian_estimate(records, tau / (h * h))
    return est.midpoint, est.half_width + SLACK_SIGMAS * est.std_error


def _capture_table(trap, radii, times, n, seed):
    """Captured fraction, its Wilson band (ci_lo, ci_hi) and the disk
    surrogate p_disk(r, r_T, t), each a radius x time array on the grid
    ``times`` (original units; walks are capped at its last point).  The
    trajectories of radius k have indices k*n on.
    """
    h = _frame(trap)[1]
    prop, lo, hi, pd = np.empty((4, len(radii), times.size))
    for k, r in enumerate(radii):
        records = release_and_sample(trap, r, n, float(times[-1]), seed, first_index=k * n)
        curve = survival_curve(records, times / (h * h), r)
        prop[k], lo[k], hi[k] = curve.captured_fraction, curve.ci_low, curve.ci_high
    for k, r in enumerate(radii):  # after every walk, as a walk's error comes first
        pd[k] = [p_disk(r, trap.r_T, t) for t in times.tolist()]
    return prop, lo, hi, pd


def _check_tau(tau):
    if not math.isfinite(tau):
        raise DomainError(f"tau must be finite, got {tau!r}")


def check_theorem1(trap, r, tau, n, seed):
    """Check |f_hat(r, tau) - f_disk(r, r_T, tau)| <= 2.9 (d^2/tau) f_disk.

    Requires tau > (e/2) d^2 and r >= r0 (HypothesisError otherwise) and a
    finite tau (DomainError).  For a disk trap the sampler is replaced by
    the oracle itself (the two distributions coincide), which makes this a
    zero-lhs self-test.
    """
    _check_tau(tau)
    d2 = trap.d * trap.d
    if not tau > 0.5 * math.e * d2:
        raise HypothesisError(
            f"tau={tau:g} does not exceed (e/2) d^2 = {0.5 * math.e * d2:g}"
        )
    if r < trap.r0:
        raise HypothesisError(f"release radius {r:g} is below r0 = {trap.r0:g}")
    fd = f_disk(r, trap.r_T, tau)
    rhs = 2.9 * d2 / tau * fd
    if trap.kind == "disk":
        mid, slack = fd, 0.0
    else:
        mid, slack = _abelian_mc(trap, float(r), tau, int(n), seed)
    return _report(
        f"theorem1[{trap.kind} r={r:g} tau={tau:g} n={n}]",
        abs(mid - fd),
        rhs,
        slack,
    )


def check_theorem2(trap, z, tau, n, seed):
    """Sandwich the pointwise Abelian mean F_hat(z, tau).

    Returns (lower_report, upper_report); a side whose hypothesis fails
    (tau <= (e/2) d^2 for the lower, tau <= (e/2) R_z^2 for the upper) is
    returned as None.  Raises HypothesisError when both fail, DomainError
    for a non-finite tau.
    """
    _check_tau(tau)
    d2 = trap.d * trap.d
    rz = r_z(trap, z)
    rz2 = rz * rz  # float ** 2 raises OverflowError past about 1e154
    lower_ok = tau > 0.5 * math.e * d2
    upper_ok = tau > 0.5 * math.e * rz2
    if not (lower_ok or upper_ok):
        raise HypothesisError(
            f"tau={tau:g} satisfies neither tau > (e/2) d^2 = {0.5 * math.e * d2:g} "
            f"nor tau > (e/2) R_z^2 = {0.5 * math.e * rz2:g}"
        )
    base = 1.0 - 2.0 * math.pi * _green(trap, z) / math.log(tau / trap.tau0)
    if trap.kind == "disk":
        mid, slack = f_disk(abs(z), trap.r_T, tau), 0.0
    else:
        mid, slack = _abelian_mc(trap, z, tau, int(n), seed)
    tag = f"{trap.kind} z=({z.x:g},{z.y:g}) tau={tau:g} n={n}"
    lower = None
    if lower_ok:
        lower = _report(f"theorem2-lower[{tag}]", base - 0.8 * d2 / tau, mid, slack)
    upper = None
    if upper_ok:
        upper = _report(f"theorem2-upper[{tag}]", mid, base + 0.8 * rz2 / tau, slack)
    return lower, upper


def conjecture_probe(trap, radii, times, n, seed):
    """Empirical deviation of segment capture curves from the disk surrogate.

    For each grid time, reports the sup over release radii of
    |Prop(r,t) - p_disk(r,t)| normalized by p_disk (capture-relative) and by
    1 - p_disk (survival-relative; skipped where 1 - p_disk is within ten
    Wilson half-widths of 0, since the ratio degenerates there).  This is
    exploratory evidence - rows carry the Monte Carlo band widths and no
    verdict.
    """
    radii = [float(r) for r in radii]
    if any(r < trap.r0 for r in radii):
        raise DomainError(f"all release radii must be >= r0 = {trap.r0:g}")
    times = np.asarray(times, dtype=float)
    prop, lo, hi, pd = _capture_table(trap, radii, times, int(n), seed)

    # reductions over the radius axis; a skipped cell adds 0 to its sup
    diff = np.abs(prop - pd)
    half = 0.5 * (hi - lo)
    cap_ok = pd > 1e-12  # below it, prop == 0 is the 0/0 of t ~ 0 and not a skip
    surv_ok = 1.0 - pd >= 10.0 * half
    columns = {
        "t": times,
        "sup_rel_capture": np.divide(diff, pd, out=np.zeros_like(diff), where=cap_ok).max(axis=0, initial=0.0),
        "sup_rel_survival": np.divide(diff, 1.0 - pd, out=np.zeros_like(diff), where=surv_ok).max(axis=0, initial=0.0),
        "max_ci_halfwidth": half.max(axis=0, initial=0.0),
        "skipped_capture": np.sum(~cap_ok & (prop != 0.0), axis=0),
        "skipped_survival": np.sum(~surv_ok, axis=0),
    }
    return [dict(zip(columns, cells)) for cells in zip(*(v.tolist() for v in columns.values()))]


def figure_series(radii=None, t_grid=None, n=100000, seed=0):
    """Capture/survival series for the normalized segment trap.

    For each release radius and grid time: the simulated capture proportion
    with Wilson 99% bands, the conformal-radius disk surrogate
    p_disk(r, 1/2, t), both logarithmic comparators, and the survival-side
    complements of each.  Returns a list of row dicts ordered by radius then
    time.
    """
    if radii is None:
        radii = DEFAULT_RADII
    if t_grid is None:
        t_grid = np.logspace(-1.0, 5.0, 25)
    t_grid = np.asarray(t_grid, dtype=float)
    radii = [float(r) for r in radii]
    trap = make_segment_trap(-1.0, 1.0)  # r_T = 1/2 exactly
    prop, lo, hi, pd = (a.tolist() for a in _capture_table(trap, radii, t_grid, int(n), seed))

    rows = []
    for k, r in enumerate(radii):
        for j, t in enumerate(t_grid.tolist()):
            row = {
                "r": r,
                "t": t,
                "prop": prop[k][j],
                "ci_lo": lo[k][j],
                "ci_hi": hi[k][j],
                "p_disk": pd[k][j],
                "hunt_raw": hunt_approx(r, trap.r_T, t, "raw"),
                "hunt_tau0": hunt_approx(r, trap.r_T, t, "tau0"),
            }
            row["surv"] = 1.0 - row["prop"]
            row["surv_ci_lo"] = 1.0 - row["ci_hi"]
            row["surv_ci_hi"] = 1.0 - row["ci_lo"]
            row["surv_p_disk"] = 1.0 - row["p_disk"]
            row["surv_hunt_raw"] = 1.0 - row["hunt_raw"]
            row["surv_hunt_tau0"] = 1.0 - row["hunt_tau0"]
            rows.append(row)
    return rows
