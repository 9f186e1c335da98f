"""Numerical exercises of the quantitative approximation bounds.

Each check compares a Monte Carlo quantity from the segment sampler against
the disk-oracle closed forms and packages the comparison as a
:class:`BoundReport`: left side, right side, margin, and a verdict that
tolerates Monte Carlo noise explicitly (3 standard errors plus the full
censoring bracket) rather than by silent fudge factors.  Both theorem
checks turn the sampler's records into that bracket of the Abelian mean
E[exp(-T/tau)] with one helper, ``_abelian_bracket``: theorem 1 from walks
released on a circle, theorem 2 from walks that all start at z.

The two theorem checks:

* circle-averaged Abelian means: |f_hat - f_disk| <= 2.9 (d^2/tau) f_disk,
  valid for tau > (e/2) d^2 and release radii >= r0;
* pointwise Abelian means: F_hat sandwiched between
  1 - 2 pi H(z)/ln(tau/tau0) -+ 0.8 d^2/tau (resp. 0.8 R_z^2/tau), each
  side valid under its own hypothesis on tau.

The walks run on the trap's own segment [a, b], in its lengths and times.
Only the Green's function is evaluated on the normalized segment [-1, 1],
at the image of z under the affine map (x, y) -> ((x - c)/h, y/h), with c
the centre and h the half-length; it is invariant under that map.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from trapprob.conformal import PlanePoint, _check_trap, green_segment, make_segment_trap, r_z
from trapprob.disk_oracle import f_disk, hunt_approx, p_disk
from trapprob.errors import CapacityError, DomainError, HypothesisError, require_count, require_finite
from trapprob.segment_sim import RECORD_DTYPE, _check_cap, _check_grid, release_circle, sample_batch, survival_curve

# Cap the simulated horizon at this multiple of tau: the censoring bracket
# exp(-t_max/tau) = exp(-20) ~ 2e-9 is then negligible against MC noise.
TMAX_OVER_TAU = 20.0

# Verdicts tolerate this many standard errors on top of the censoring bracket.
SLACK_SIGMAS = 3.0

DEFAULT_RADII = (1.0, 5.0, 25.0, 125.0)

# Walks run in chunks of at most this many trajectories.  A live trajectory
# costs about 360 B of working set, so a chunk stays near 24 MB however many
# trajectories and radii a call asks for; a chunk this large keeps the
# per-step numpy overhead of the lockstep loop small.
WALK_CHUNK = 2**16


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


def _walk(trap, starts, count, t_max, seed):
    """Records of the trajectories 0 .. count - 1 against ``trap``, capped
    at t_max and walked in chunks of at most WALK_CHUNK; ``starts(lo, hi)``
    gives the start points of trajectories lo .. hi - 1.

    The cap is a DomainError unless it is a positive real number (inf
    included).  The records are allocated before the first chunk, so a
    count whose records cannot fit raises CapacityError at once rather than
    after walking chunk after chunk.
    """
    _check_cap(t_max)
    try:
        records = np.recarray(count, dtype=RECORD_DTYPE)
    except (MemoryError, ValueError):  # numpy cannot allocate it, or refuses the size
        raise CapacityError(f"{count} trajectories are too many: their records do not fit in memory") from None
    for lo in range(0, count, WALK_CHUNK):
        hi = min(lo + WALK_CHUNK, count)
        records[lo:hi] = sample_batch(trap, starts(lo, hi), t_max, seed, first_index=lo)
    return records


def release_and_sample(trap, r, n, t_max, seed):
    """Simulate n trajectories released uniformly on the circle of radius r
    (origin centre) against a segment trap, capped at time t_max; r may also
    be a sequence of radii, with n trajectories each.

    Trajectory i of radius k has index ``k n + i`` for both its release
    point and its walk, and its record is row ``k n + i``.  Every radius is
    checked before the first walk, and all of them are walked as one index
    range in chunks of at most WALK_CHUNK trajectories.  The records are in
    the trap's units: hitting times and the hit abscissa ``x`` on the
    segment's line.
    """
    _check_trap(trap)
    radii = [r] if np.ndim(r) == 0 else list(r)
    require_count(len(radii), "number of release radii")
    for radius in radii:
        if not (isinstance(radius, numbers.Real) and 0.0 < radius < math.inf):
            raise DomainError(f"release radius must be positive and finite, got {radius!r}")
    n = require_count(n, "trajectory count")

    def starts(lo, hi):
        # one release_circle per radius piece of the trajectories lo .. hi - 1
        points = []
        for k in range(lo // n, (hi - 1) // n + 1):
            a, b = max(lo, k * n), min(hi, (k + 1) * n)
            points += release_circle(radii[k], b - a, seed, a)
        return points

    return _walk(trap, starts, len(radii) * n, t_max, seed)


def _abelian_bracket(records, tau):
    """Midpoint and statistical slack of the Monte Carlo bracket of the
    Abelian mean E[exp(-hitting time / tau)], from sampler records and tau
    in the records' time units.

    An uncensored record contributes exp(-time/tau) to both ends.  A
    censored record only reveals that its hitting time exceeds its
    accumulated time S, so it contributes 0 to the lower mean and
    exp(-S/tau) to the upper (at least as tight as exp(-t_max/tau), since
    S > t_max).  The slack is the bracket's half-width plus SLACK_SIGMAS
    standard errors, the larger of the two summands' deviations over
    sqrt(n).
    """
    n = len(records)
    highs = np.exp(-records.time / tau)
    lows = np.where(records.censored, 0.0, highs)
    sd_low = float(np.std(lows, ddof=1)) if n > 1 else 0.0
    sd_high = float(np.std(highs, ddof=1)) if n > 1 else 0.0
    low, high = float(np.mean(lows)), float(np.mean(highs))
    return 0.5 * (low + high), 0.5 * (high - low) + SLACK_SIGMAS * (max(sd_low, sd_high) / math.sqrt(n))


def _capture_table(trap, radii, times, n, seed):
    """Captured fraction, its Wilson band (ci_lo, ci_hi) and the disk
    surrogate p_disk(r, r_T, t), each a radius x time array on the checked
    grid ``times`` (walks are capped at its last point).
    The disk column comes first, so p_disk's rules refuse a bad radius or
    time before any walk.  All radii are walked in one release_and_sample
    call, so the trajectories of radius k have indices k*n on.
    """
    require_count(len(radii), "number of release radii")
    n = require_count(n, "trajectory count")
    pd = np.array([[p_disk(r, trap.r_T, t) for t in times.tolist()] for r in radii])
    records = release_and_sample(trap, radii, n, float(times[-1]), seed)
    prop, lo, hi = np.empty((3, len(radii), times.size))
    for k in range(len(radii)):
        prop[k], lo[k], hi[k] = survival_curve(records[k * n : (k + 1) * n], times)
    return prop, lo, hi, pd


def _release_radii(radii):
    """The release radii as floats; DomainError for a radius that is not a
    real number."""
    if isinstance(radii, (str, bytes)):  # iterable, but character by character
        raise DomainError(f"release radii must be real numbers, got {radii!r}")
    try:
        return [float(r) for r in radii]
    except (TypeError, ValueError, OverflowError):  # a string, a complex or an int past the double range
        raise DomainError(f"release radii must be real numbers in the double range, got {radii!r}") from None


def check_theorem1(trap, r, tau, n, seed):
    """Check |f_hat(r, tau) - f_disk(r, r_T, tau)| <= 2.9 (d^2/tau) f_disk.

    f_hat is the Monte Carlo bracket of walks released on the circle of
    radius r0, which encloses the trap, carried out to radius r exactly:
    a walk from the circle of radius r reaches that of radius r0 at a
    uniform point independent of when, so f_hat(r) = f_disk(r, r0, tau)
    f_hat(r0), and the bracket's midpoint and slack both scale by that
    factor (exactly 1 at r = r0).  f_disk(r, r_T, tau) is the exact mean
    for the disk of the segment's conformal radius.  Requires tau >
    (e/2) d^2 and r >= r0 (HypothesisError otherwise) and a finite real
    r and tau (DomainError).
    """
    _check_trap(trap)
    require_finite(r=r, tau=tau)
    n = require_count(n, "trajectory count")
    d2 = trap.d * trap.d
    if not tau > 0.5 * math.e * d2:
        raise HypothesisError(
            f"tau={tau:g} does not exceed (e/2) d^2 = {0.5 * math.e * d2:g}"
        )
    if r < trap.r0:
        raise HypothesisError(f"release radius {r:g} is below r0 = {trap.r0:g}")
    fd = f_disk(r, trap.r_T, tau)
    rhs = 2.9 * d2 / tau * fd
    records = release_and_sample(trap, trap.r0, n, TMAX_OVER_TAU * tau, seed)
    mid, slack = _abelian_bracket(records, tau)
    transfer = f_disk(r, trap.r0, tau)
    return _report(
        f"theorem1[segment r={r:g} released at r0={trap.r0:g} tau={tau:g} n={n}]",
        abs(transfer * mid - fd),
        rhs,
        transfer * slack,
    )


def check_theorem2(trap, z, tau, n, seed):
    """Sandwich the pointwise Abelian mean F_hat(z, tau).

    Returns (lower_report, upper_report); a side whose hypothesis fails
    (tau <= (e/2) d^2 for the lower, tau <= (e/2) R_z^2 for the upper) is
    returned as None.  Raises HypothesisError when both fail, DomainError
    for a non-finite tau.
    """
    _check_trap(trap)
    require_finite(tau=tau)
    n = require_count(n, "trajectory count")
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
    c, h = 0.5 * (trap.a + trap.b), 0.5 * (trap.b - trap.a)
    unit_z = PlanePoint((z.x - c) / h, z.y / h)  # z's image on the normalized segment
    base = 1.0 - 2.0 * math.pi * green_segment(unit_z) / math.log(tau / trap.tau0)
    records = _walk(trap, lambda lo, hi: [z] * (hi - lo), n, TMAX_OVER_TAU * tau, seed)
    mid, slack = _abelian_bracket(records, tau)
    tag = f"segment z=({z.x:g},{z.y:g}) tau={tau:g} n={n}"
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
    exploratory evidence - the table carries the Monte Carlo band widths
    and no verdict.

    Returns the table as {column name: list of Python scalars}, one entry
    per grid time, with the columns t, sup_rel_capture, sup_rel_survival,
    max_ci_halfwidth, skipped_capture and skipped_survival in that order.
    """
    _check_trap(trap)
    radii = _release_radii(radii)
    if any(r < trap.r0 for r in radii):
        raise DomainError(f"all release radii must be >= r0 = {trap.r0:g}")
    times = _check_grid(times)
    prop, lo, hi, pd = _capture_table(trap, radii, times, n, seed)

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
    return {key: column.tolist() for key, column in columns.items()}


def figure_series(radii=None, t_grid=None, n=100000, seed=0):
    """Capture/survival series for the normalized segment trap.

    For each release radius and grid time: the simulated capture proportion
    with Wilson 99% bands, the conformal-radius disk surrogate
    p_disk(r, 1/2, t), both logarithmic comparators, and the survival-side
    complements of each.  Returns the table as {column name: list of Python
    scalars}, with one entry per (radius, time) cell ordered by radius then
    time, and the columns r, t, prop, ci_lo, ci_hi, p_disk, hunt_raw,
    hunt_tau0, surv, surv_ci_lo, surv_ci_hi, surv_p_disk, surv_hunt_raw and
    surv_hunt_tau0 in that order.
    """
    if radii is None:
        radii = DEFAULT_RADII
    if t_grid is None:
        t_grid = np.logspace(-1.0, 5.0, 25)
    t_grid = _check_grid(t_grid)
    radii = _release_radii(radii)
    trap = make_segment_trap(-1.0, 1.0)  # r_T = 1/2 exactly
    # hunt_approx's rules (t > 0 among them) refuse a bad radius or time before any walk
    raw, tau0 = (np.array([[hunt_approx(r, trap.r_T, t, v) for t in t_grid.tolist()] for r in radii])
                 for v in ("raw", "tau0"))
    prop, lo, hi, pd = _capture_table(trap, radii, t_grid, n, seed)
    columns = {
        "r": np.repeat(radii, t_grid.size), "t": np.tile(t_grid, len(radii)),
        "prop": prop, "ci_lo": lo, "ci_hi": hi,
        "p_disk": pd, "hunt_raw": raw, "hunt_tau0": tau0,
    }
    # survival-side complements; a band's ends swap
    for key, of in (("surv", "prop"), ("surv_ci_lo", "ci_hi"), ("surv_ci_hi", "ci_lo"), ("surv_p_disk", "p_disk"),
                    ("surv_hunt_raw", "hunt_raw"), ("surv_hunt_tau0", "hunt_tau0")):
        columns[key] = 1.0 - columns[of]
    return {key: column.ravel().tolist() for key, column in columns.items()}
