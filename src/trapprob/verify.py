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
from trapprob.segment_sim import (
    RELEASE_STREAM,
    abelian_estimate,
    philox_stream,
    release_circle,
    sample_batch,
    survival_curve,
)

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


def release_and_sample(trap, r, n, t_max, seed, release_index=RELEASE_STREAM, first_index=0):
    """Simulate n trajectories released uniformly on the circle of radius r
    (origin centre) against a segment trap, capped at time t_max.

    The release points come from stream ``release_index``, and trajectory i
    has index ``first_index + i`` in the walk's stream.  The walk runs in
    the segment's unit frame, so the returned record array holds times in
    units of h^2 and hit abscissae in unit-frame coordinates (h the
    half-length).
    """
    starts = release_circle(r, n, philox_stream(seed, release_index))
    c, h = _frame(trap)
    if (c, h) != (0.0, 1.0):  # on [-1, 1] the frame map is the identity
        starts = [_normalize(trap, p) for p in starts]
    return sample_batch(starts, t_max / (h * h), seed, first_index=first_index)


def _abelian_mc(trap, start, tau, n, seed):
    """Midpoint and statistical slack of the Monte Carlo Abelian mean for a
    segment trap, in original time units.

    ``start`` is either a fixed PlanePoint (all trajectories from one point)
    or a release radius (uniform on that circle).
    """
    h = _frame(trap)[1]
    t_max = TMAX_OVER_TAU * tau
    if isinstance(start, PlanePoint):
        records = sample_batch([_normalize(trap, start)] * n, t_max / (h * h), seed)
    else:
        records = release_and_sample(trap, start, n, t_max, seed)
    est = abelian_estimate(records, tau / (h * h))
    return est.midpoint, est.half_width + SLACK_SIGMAS * est.std_error


def _capture_curves(trap, radii, times, n, seed):
    """One survival curve per release radius on the grid ``times`` (original
    units, capped at its last point).  Radius k draws its release points
    from stream RELEASE_STREAM-1-k, and its trajectories have indices k*n on.
    """
    h = _frame(trap)[1]
    curves = []
    for k, r in enumerate(radii):
        records = release_and_sample(
            trap, r, n, float(times[-1]), seed, release_index=RELEASE_STREAM - 1 - k, first_index=k * n
        )
        curves.append(survival_curve(records, times / (h * h), r))
    return curves


def check_theorem1(trap, r, tau, n, seed):
    """Check |f_hat(r, tau) - f_disk(r, r_T, tau)| <= 2.9 (d^2/tau) f_disk.

    Requires tau > (e/2) d^2 and r >= r0 (HypothesisError otherwise).  For a
    disk trap the sampler is replaced by the oracle itself (the two
    distributions coincide), which makes this a zero-lhs self-test.
    """
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
    returned as None.  Raises HypothesisError when both fail.
    """
    d2 = trap.d * trap.d
    rz2 = r_z(trap, z) ** 2
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


def corollary_envelope(trap, z, t):
    """Leading error envelope 2 pi H(z) ln(ln^2(t/tau0)) / ln^2(t/tau0) of the
    logarithmic capture approximation (diagnostic only: the o(1) correction
    is not computable at finite t)."""
    if not t > trap.tau0:
        raise DomainError(f"need t > tau0 = {trap.tau0:g}, got {t!r}")
    big_l = math.log(t / trap.tau0)
    return 2.0 * math.pi * _green(trap, z) * math.log(big_l * big_l) / (big_l * big_l)


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
    curves = _capture_curves(trap, radii, times, int(n), seed)

    rows = []
    for j, t in enumerate(times):
        sup_cap = 0.0
        sup_surv = 0.0
        skipped_cap = 0
        skipped_surv = 0
        max_half = 0.0
        for k, r in enumerate(radii):
            prop = curves[k].captured_fraction[j]
            half = 0.5 * (curves[k].ci_high[j] - curves[k].ci_low[j])
            max_half = max(max_half, half)
            pd = p_disk(r, trap.r_T, float(t))
            diff = abs(prop - pd)
            if pd > 1e-12:
                sup_cap = max(sup_cap, diff / pd)
            elif prop == 0.0:
                pass  # 0/0 at t ~ 0: no captures and none expected
            else:
                skipped_cap += 1
            if 1.0 - pd >= 10.0 * half:
                sup_surv = max(sup_surv, diff / (1.0 - pd))
            else:
                skipped_surv += 1
        rows.append(
            {
                "t": float(t),
                "sup_rel_capture": sup_cap,
                "sup_rel_survival": sup_surv,
                "max_ci_halfwidth": max_half,
                "skipped_capture": skipped_cap,
                "skipped_survival": skipped_surv,
            }
        )
    return rows


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
    curves = _capture_curves(make_segment_trap(-1.0, 1.0), radii, t_grid, int(n), seed)

    rows = []
    for r, curve in zip(radii, curves):
        for j, t in enumerate(t_grid):
            pd = p_disk(r, 0.5, float(t))
            row = {
                "r": r,
                "t": float(t),
                "prop": float(curve.captured_fraction[j]),
                "ci_lo": float(curve.ci_low[j]),
                "ci_hi": float(curve.ci_high[j]),
                "p_disk": pd,
                "hunt_raw": hunt_approx(r, 0.5, float(t), "raw"),
                "hunt_tau0": hunt_approx(r, 0.5, float(t), "tau0"),
            }
            row["surv"] = 1.0 - row["prop"]
            row["surv_ci_lo"] = 1.0 - row["ci_hi"]
            row["surv_ci_hi"] = 1.0 - row["ci_lo"]
            row["surv_p_disk"] = 1.0 - row["p_disk"]
            row["surv_hunt_raw"] = 1.0 - row["hunt_raw"]
            row["surv_hunt_tau0"] = 1.0 - row["hunt_tau0"]
            rows.append(row)
    return rows
