"""Exact-in-distribution sampling of segment-trap hitting times.

The trap is the normalized segment [-1, 1] x {0} (callers rescale, shift
and rotate).  A planar Brownian path started off the trap must cross the
horizontal axis before hitting the trap, and - when on the axis outside the
trap - must cross the vertical line through the nearer endpoint first.  The
time to reach a line at distance D is distributed as D^2/g^2 with g standard
normal, and the landing offset along the line is (D/|g1|) g2; so alternating
those two jumps walks the path onto the trap in finitely many steps while
reproducing the exact joint law of (hitting time, hit point).  A trajectory
is censored as soon as its accumulated time exceeds the cap t_max.

Randomness is counter-based: trajectory i of a run draws from
``Philox(key=[seed, i])``, so results are bit-reproducible regardless of
batch order or chunking; the release-point stream uses the reserved
index 2^64 - 1.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from trapprob.conformal import PlanePoint
from trapprob.errors import ConvergenceError, DomainError

# Landing within this distance of an endpoint counts as a capture: the
# line-jump maps |X| > 1 to exactly +-1, so endpoint landings are legitimate.
ENDPOINT_TOL = 1e-15

# Guard against pathological floating-point stalls near the endpoints.
STEP_CAP = 10**8

# Reserved stream index for release-point sampling.
RELEASE_STREAM = 2**64 - 1

# 99% two-sided normal quantile for Wilson score intervals.
Z_99 = 2.5758293035489004


@dataclass(frozen=True)
class HittingRecord:
    """Outcome of one simulated trajectory.

    ``censored`` is False iff the trap was hit by the cap, in which case
    ``hit_point`` lies on the segment and ``time`` <= t_max; otherwise
    ``time`` is the first accumulated jump time exceeding the cap and
    ``hit_point`` is None.
    """

    time: float
    hit_point: Optional[PlanePoint]
    censored: bool
    steps: int


@dataclass(frozen=True)
class SurvivalCurve:
    """Empirical capture proportion against time with Wilson 99% bands."""

    times: np.ndarray
    captured_fraction: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n: int
    release_radius: float


@dataclass(frozen=True)
class AbelianEstimate:
    """Censoring-aware Monte Carlo bracket of E[exp(-hitting time / tau)]."""

    tau: float
    mean_low: float
    mean_high: float
    std_error: float
    n: int

    @property
    def midpoint(self):
        return 0.5 * (self.mean_low + self.mean_high)

    @property
    def half_width(self):
        return 0.5 * (self.mean_high - self.mean_low)


def philox_stream(seed, index):
    """Counter-based generator for trajectory ``index`` of run ``seed``."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def jump_to_axis(x, y, g1, g2):
    """One off-axis move: land on the horizontal axis.

    Returns (new_x, elapsed).  The landing abscissa x + (|y|/|g1|) g2 is
    Cauchy(x, |y|) distributed and the elapsed time y^2/g1^2 is the exact
    law of the axis-crossing time.
    """
    return x + abs(y) / abs(g1) * g2, (y / g1) ** 2


def jump_to_line(x, g1, g2):
    """One on-axis move from |x| > 1: land on the vertical line x = sign(x).

    Returns (new_x, new_y, elapsed) with new_x = sign(x), vertical offset
    (|x|-1)/|g1| * g2 and elapsed time (|x|-1)^2/g1^2.
    """
    gap = abs(x) - 1.0
    return math.copysign(1.0, x), gap / abs(g1) * g2, (gap / g1) ** 2


def sample_hit(start, t_max, rng):
    """Simulate one trajectory from ``start`` against the normalized segment.

    Each step consumes exactly two standard-normal draws from ``rng`` (a
    pair is redrawn in the measure-zero event that the first draw underflows
    to exactly 0).  Returns a :class:`HittingRecord`; raises
    ConvergenceError if the walk exceeds STEP_CAP steps.
    """
    if not t_max > 0.0:
        raise DomainError(f"t_max must be positive, got {t_max!r}")
    x, y = float(start.x), float(start.y)
    if y == 0.0 and abs(x) <= 1.0 + ENDPOINT_TOL:
        return HittingRecord(0.0, PlanePoint(x, 0.0), False, 0)
    elapsed = 0.0
    steps = 0
    while True:
        if steps >= STEP_CAP:
            raise ConvergenceError(
                f"trajectory from ({start.x}, {start.y}) exceeded {STEP_CAP} steps"
            )
        g1, g2 = rng.standard_normal(2)
        while g1 == 0.0:
            g1, g2 = rng.standard_normal(2)
        if y != 0.0:
            x, dt = jump_to_axis(x, y, g1, g2)
            y = 0.0
        else:
            x, y, dt = jump_to_line(x, g1, g2)
        elapsed += dt
        steps += 1
        if elapsed > t_max:
            return HittingRecord(elapsed, None, True, steps)
        if y == 0.0 and abs(x) <= 1.0 + ENDPOINT_TOL:
            return HittingRecord(elapsed, PlanePoint(x, 0.0), False, steps)


def release_circle(r, n, rng):
    """n independent uniform points on the circle of radius r (origin center)."""
    if not r > 0.0:
        raise DomainError(f"release radius must be positive, got {r!r}")
    if n != int(n) or n < 1:
        raise DomainError(f"need a positive integer count, got {n!r}")
    theta = np.asarray(rng.random(int(n)), dtype=float) * (2.0 * np.pi)
    xs = r * np.cos(theta)
    ys = r * np.sin(theta)
    return [PlanePoint(float(px), float(py)) for px, py in zip(xs, ys)]


def sample_batch(starts, t_max, seed, first_index=0):
    """Simulate one trajectory per start point.

    Trajectory i uses the stream ``philox_stream(seed, first_index + i)``,
    so the result is independent of chunking: splitting the starts into
    consecutive pieces and passing each piece's offset as ``first_index``
    reproduces the whole batch.
    """
    return [
        sample_hit(p, t_max, philox_stream(seed, first_index + i))
        for i, p in enumerate(starts)
    ]


def wilson_interval(successes, n, z=Z_99):
    """Wilson score interval for a binomial proportion (vectorized).

    The bounds are probabilities, so they are clipped to [0, 1]; at the
    extremes (0 or n successes) the unclipped arithmetic can stray below 0
    or above 1 by a few 1e-18 of cancellation dust.
    """
    successes = np.asarray(successes, dtype=float)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2.0 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def survival_curve(records, times, r):
    """Empirical capture proportion at each grid time with Wilson 99% bands.

    captured_fraction(t) counts records with ``not censored and time < t``.
    All records must share a cap t_max >= max(times); this is checked
    against the censored records (whose times exceed the cap by
    construction) - a censored time at or below the last grid point proves
    the grid exceeds the cap.
    """
    records = list(records)
    if not records:
        raise DomainError("survival_curve needs at least one record")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d grid")
    if np.any(np.diff(times) < 0):
        raise DomainError("times grid must be ascending")
    censored_times = [rec.time for rec in records if rec.censored]
    if censored_times and min(censored_times) <= times[-1]:
        raise DomainError(
            f"grid reaches {times[-1]:g} but a trajectory was censored at "
            f"{min(censored_times):g}: grid exceeds the simulation cap"
        )
    n = len(records)
    hit_times = np.sort([rec.time for rec in records if not rec.censored])
    counts = np.searchsorted(hit_times, times, side="left")
    frac = counts / n
    lo, hi = wilson_interval(counts, n)
    return SurvivalCurve(times, frac, lo, hi, n, float(r))


def abelian_estimate(records, tau):
    """Monte Carlo bracket of the Abelian mean E[exp(-hitting time / tau)].

    Uncensored records contribute exp(-time/tau) exactly.  A censored record
    only reveals that its hitting time exceeds its accumulated time S, so it
    contributes 0 to the lower mean and exp(-S/tau) to the upper (a bound at
    least as tight as exp(-t_max/tau) since S > t_max).  The standard error
    is the larger of the two deviations-of-the-summands, divided by sqrt(n).
    """
    records = list(records)
    if not records:
        raise DomainError("abelian_estimate needs at least one record")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau!r}")
    n = len(records)
    lows = np.empty(n)
    highs = np.empty(n)
    for i, rec in enumerate(records):
        w = math.exp(-rec.time / tau)
        lows[i] = 0.0 if rec.censored else w
        highs[i] = w
    sd_low = float(np.std(lows, ddof=1)) if n > 1 else 0.0
    sd_high = float(np.std(highs, ddof=1)) if n > 1 else 0.0
    return AbelianEstimate(
        tau=float(tau),
        mean_low=float(np.mean(lows)),
        mean_high=float(np.mean(highs)),
        std_error=max(sd_low, sd_high) / math.sqrt(n),
        n=n,
    )
