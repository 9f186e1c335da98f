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

:func:`sample_batch` advances all trajectories of a batch together as
arrays and returns a record array (fields ``time, x, censored, steps``).
Its randomness is counter-based: step k of trajectory j draws its two
normals from one Philox4x32-10 block (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) with counter (k, 0, j mod 2^32,
j div 2^32) and key (seed mod 2^32, seed div 2^32), through Box-Muller.
Every draw is a function of (seed, trajectory, step) alone, so results are
bit-reproducible and do not depend on how a batch is split into chunks.
Release points come from the numpy generator ``philox_stream(seed,
RELEASE_STREAM)``, the reserved index 2^64 - 1.
"""

import math
from dataclasses import dataclass

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

# Version of the walk's random stream, recorded in every run manifest: a
# change to the generator, its keying or the normal transform must bump it.
SAMPLER_STREAM = "philox4x32-10/box-muller/1"

# Philox4x32 round multipliers and Weyl key increments (Random123).
PHILOX_M = (0xD2511F53, 0xCD9E8D57)
PHILOX_W = (0x9E3779B9, 0xBB67AE85)
PHILOX_ROUNDS = 10
_MASK32 = 0xFFFFFFFF

# One trajectory per row; ``x`` is the unit-frame hit abscissa, NaN when
# censored.
RECORD_DTYPE = np.dtype([("time", "f8"), ("x", "f8"), ("censored", "?"), ("steps", "i8")])


@dataclass(frozen=True)
class HittingRecord:
    """Outcome of one simulated trajectory (a row of ``RECORD_DTYPE``).

    ``censored`` is False iff the trap was hit by the cap, in which case
    the hit point is (``x``, 0) on the segment and ``time`` <= t_max;
    otherwise ``time`` is the first accumulated jump time exceeding the cap
    and ``x`` is NaN.
    """

    time: float
    x: float
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
    """Counter-based numpy generator for stream ``index`` of run ``seed``
    (the release points use ``index = RELEASE_STREAM``)."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def philox4x32(c0, c1, c2, c3, k0, k1):
    """The Philox4x32-10 block function on 32-bit words held in uint64.

    The counter words c0..c3 may be arrays or scalars (they broadcast);
    the key words k0, k1 are integers.  Returns the four output words.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3))
    k0, k1 = int(k0), int(k1)
    for _ in range(PHILOX_ROUNDS):
        p0 = c0 * PHILOX_M[0]  # exact: both factors are below 2^32
        p1 = c2 * PHILOX_M[1]
        # (hi(p1) ^ c1 ^ k0, lo(p1), hi(p0) ^ c3 ^ k1, lo(p0)), updated in
        # place where the operands are arrays to save temporaries
        c0 = p1 >> 32
        c0 ^= c1
        c0 ^= k0
        c2 = p0 >> 32
        c2 ^= c3
        c2 ^= k1
        p1 &= _MASK32
        p0 &= _MASK32
        c1, c3 = p1, p0
        k0 = (k0 + PHILOX_W[0]) & _MASK32
        k1 = (k1 + PHILOX_W[1]) & _MASK32
    return c0, c1, c2, c3


def _open_unit(hi, lo):
    """Uniform on (0, 1) from two 32-bit words: (m + 0.5) / 2^52 with m the
    top 52 bits.  With 52 bits the value is exact, so it is never 0 or 1;
    with 53 the top value would round to 1.0."""
    m = ((hi << 32) | lo) >> 12
    return (m + 0.5) * 2.0**-52


def philox_normals(seed, index, step):
    """The two standard normals (g1, g2) that step ``step`` of trajectory
    ``index`` consumes: one Philox4x32-10 block with counter (step, 0,
    index mod 2^32, index div 2^32) and key (seed mod 2^32, seed div 2^32),
    through Box-Muller.  ``index`` may be an array.  g1 is never 0: the
    radius is positive and the cosine of a double never vanishes.
    """
    index = np.asarray(index, dtype=np.uint64)
    w0, w1, w2, w3 = philox4x32(step, 0, index & _MASK32, index >> 32, seed & _MASK32, seed >> 32)
    radius = np.sqrt(-2.0 * np.log(_open_unit(w0, w1)))
    theta = (2.0 * np.pi) * _open_unit(w2, w3)
    return radius * np.cos(theta), radius * np.sin(theta)


def jump_to_axis(x, y, g1, g2):
    """One off-axis move: land on the horizontal axis.

    Returns (new_x, elapsed).  The landing abscissa x + (|y|/|g1|) g2 is
    Cauchy(x, |y|) distributed and the elapsed time y^2/g1^2 is the exact
    law of the axis-crossing time.
    """
    q = y / g1  # squared by a product, as in sample_batch: pow may differ in the last bit
    return x + abs(y) / abs(g1) * g2, q * q


def jump_to_line(x, g1, g2):
    """One on-axis move from |x| > 1: land on the vertical line x = sign(x).

    Returns (new_x, new_y, elapsed) with new_x = sign(x), vertical offset
    (|x|-1)/|g1| * g2 and elapsed time (|x|-1)^2/g1^2.
    """
    gap = abs(x) - 1.0
    q = gap / g1  # squared by a product, as in sample_batch
    return math.copysign(1.0, x), gap / abs(g1) * g2, q * q


def sample_hit(start, t_max, rng):
    """Simulate one trajectory from ``start`` against the normalized segment.

    Each step consumes exactly two standard-normal draws from ``rng`` (a
    pair is redrawn in the measure-zero event that the first draw underflows
    to exactly 0).  Returns a :class:`HittingRecord`; raises
    ConvergenceError if the walk exceeds STEP_CAP steps.  This is the scalar
    reference for :func:`sample_batch`: fed that kernel's normals, it
    returns the same record.
    """
    if not t_max > 0.0:
        raise DomainError(f"t_max must be positive, got {t_max!r}")
    x, y = float(start.x), float(start.y)
    if y == 0.0 and abs(x) <= 1.0 + ENDPOINT_TOL:
        return HittingRecord(0.0, x, False, 0)
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
            return HittingRecord(elapsed, math.nan, True, steps)
        if y == 0.0 and abs(x) <= 1.0 + ENDPOINT_TOL:
            return HittingRecord(elapsed, x, False, steps)


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


def _on_trap(x, y):
    return (y == 0.0) & (np.abs(x) <= 1.0 + ENDPOINT_TOL)


def sample_batch(starts, t_max, seed, first_index=0):
    """Simulate one trajectory per start point (a sequence of PlanePoints).

    All live trajectories take their next step together; a trajectory that
    is captured or censored is written to the result and dropped.  Step k
    of trajectory i uses ``philox_normals(seed, first_index + i, k)``, so
    the result is independent of chunking: splitting the starts into
    consecutive pieces and passing each piece's offset as ``first_index``
    reproduces the whole batch.  Returns an ``np.recarray`` of
    ``RECORD_DTYPE``, one row per start; raises ConvergenceError if a walk
    exceeds STEP_CAP steps.
    """
    if not t_max > 0.0:
        raise DomainError(f"t_max must be positive, got {t_max!r}")
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2^64), got {seed!r}")
    x0 = np.array([p.x for p in starts], dtype=float)
    y0 = np.array([p.y for p in starts], dtype=float)
    out = np.recarray(x0.size, dtype=RECORD_DTYPE)
    done = _on_trap(x0, y0)
    out.time[done], out.x[done], out.censored[done], out.steps[done] = 0.0, x0[done], False, 0

    pos = np.flatnonzero(~done)  # rows of the live trajectories
    x, y = x0[pos], y0[pos]
    elapsed = np.zeros(pos.size)
    index = np.uint64(first_index) + pos.astype(np.uint64)
    step = 0
    while pos.size:
        if step >= STEP_CAP:
            raise ConvergenceError(
                f"trajectory {first_index + pos[0]} from ({x0[pos[0]]}, {y0[pos[0]]}) "
                f"exceeded {STEP_CAP} steps"
            )
        g1, g2 = philox_normals(seed, index, step)
        # jump_to_axis where y != 0, jump_to_line where y == 0 (|x| > 1)
        on_axis = y == 0.0
        dist = np.where(on_axis, np.abs(x) - 1.0, np.abs(y))
        offset = dist / np.abs(g1) * g2
        q = dist / g1
        elapsed += q * q
        x = np.where(on_axis, np.copysign(1.0, x), x + offset)
        y = np.where(on_axis, offset, 0.0)
        step += 1

        censored = elapsed > t_max
        done = censored | _on_trap(x, y)
        if done.any():
            rows = pos[done]
            out.time[rows] = elapsed[done]
            out.x[rows] = np.where(censored[done], np.nan, x[done])
            out.censored[rows] = censored[done]
            out.steps[rows] = step
            live = ~done
            pos, x, y, elapsed, index = pos[live], x[live], y[live], elapsed[live], index[live]
    return out


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

    ``records`` is a record array of ``RECORD_DTYPE`` (as returned by
    :func:`sample_batch`).  captured_fraction(t) counts records with
    ``not censored and time < t``.  All records must share a cap
    t_max >= max(times); this is checked against the censored records (whose
    times exceed the cap by construction) - a censored time at or below the
    last grid point proves the grid exceeds the cap.
    """
    if len(records) == 0:
        raise DomainError("survival_curve needs at least one record")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d grid")
    if np.any(np.diff(times) < 0):
        raise DomainError("times grid must be ascending")
    censored = records.censored
    censored_times = records.time[censored]
    if censored_times.size and censored_times.min() <= times[-1]:
        raise DomainError(
            f"grid reaches {times[-1]:g} but a trajectory was censored at "
            f"{censored_times.min():g}: grid exceeds the simulation cap"
        )
    n = len(records)
    hit_times = np.sort(records.time[~censored])
    counts = np.searchsorted(hit_times, times, side="left")
    frac = counts / n
    lo, hi = wilson_interval(counts, n)
    return SurvivalCurve(times, frac, lo, hi, n, float(r))


def abelian_estimate(records, tau):
    """Monte Carlo bracket of the Abelian mean E[exp(-hitting time / tau)].

    ``records`` is a record array of ``RECORD_DTYPE``.  Uncensored records
    contribute exp(-time/tau) exactly.  A censored record only reveals that
    its hitting time exceeds its accumulated time S, so it contributes 0 to
    the lower mean and exp(-S/tau) to the upper (a bound at least as tight
    as exp(-t_max/tau) since S > t_max).  The standard error is the larger
    of the two deviations-of-the-summands, divided by sqrt(n).
    """
    if len(records) == 0:
        raise DomainError("abelian_estimate needs at least one record")
    if not tau > 0.0:
        raise DomainError(f"tau must be positive, got {tau!r}")
    n = len(records)
    highs = np.exp(-records.time / tau)
    lows = np.where(records.censored, 0.0, highs)
    sd_low = float(np.std(lows, ddof=1)) if n > 1 else 0.0
    sd_high = float(np.std(highs, ddof=1)) if n > 1 else 0.0
    return AbelianEstimate(
        tau=float(tau),
        mean_low=float(np.mean(lows)),
        mean_high=float(np.mean(highs)),
        std_error=max(sd_low, sd_high) / math.sqrt(n),
        n=n,
    )
