"""Exact-in-distribution sampling of segment-trap hitting times.

The trap is a segment [a, b] x {0} of the horizontal axis, with centre c
and half-length h (callers rotate); the walk runs in the trap's own
lengths and times.  A planar Brownian path started off the trap must
cross the horizontal axis before hitting the trap, and - when on the axis
outside the trap - must cross the vertical line through the nearer
endpoint first.  The time to reach a line at distance D is distributed as
D^2/g^2 with g standard normal, and the landing offset along the line is
(D/|g1|) g2; so alternating those two jumps walks the path onto the trap
in finitely many steps while reproducing the exact joint law of (hitting
time, hit point).  A trajectory is censored as soon as its accumulated
time exceeds the cap t_max.

:func:`sample_batch` advances all trajectories of a batch together as
arrays and returns a record array (fields ``time, x, censored, steps``).
Its randomness is counter-based: step k of trajectory j draws its two
normals from one Philox4x32-10 block (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11) with counter (k, 0, j mod 2^32,
j div 2^32) and key (seed mod 2^32, seed div 2^32), through Box-Muller.
Every draw is a function of (seed, trajectory, step) alone, so results are
bit-reproducible and do not depend on how a batch is split into chunks.
Because a block depends on nothing but its key and counter, the walk draws
its normals several steps ahead: one call yields the blocks of steps
k..k+m-1 for every live trajectory (m from ``DRAW_AHEAD``), and the rows
that finish inside those m steps simply leave their unused blocks behind.
Each draw is the one that step k of trajectory j would take on its own.
:func:`release_circle` draws the release angle of trajectory j from the
same kernel and key with counter (0, 1, j mod 2^32, j div 2^32); the walk
keeps the second word 0, so the two never share a block.  Trajectory
indices run over [0, 2^64): a batch whose indices would pass 2^64 - 1 is
refused rather than wrapped onto another batch's streams.
"""

import math
import numbers

import numpy as np

from trapprob.conformal import PlanePoint, _check_trap
from trapprob.errors import ConvergenceError, DomainError, require_count, require_finite

# Landing within this fraction of the half-length h past an endpoint counts
# as a capture: the line jump maps |x - c| > h to exactly c +- h, so
# endpoint landings are legitimate.
ENDPOINT_TOL = 1e-15

# Guard against pathological floating-point stalls near the endpoints.
STEP_CAP = 10**8

# The walk draws its normals up to DRAW_AHEAD steps ahead, for at most
# DRAW_AHEAD**2 trajectory-steps per Philox call (one step at a time while
# more walks than that are live).  One call costs about 120 numpy
# operations whatever its size, so drawing step by step for a few live rows
# is all overhead; a block of 4096 pairs is large enough to hide that
# overhead and small enough to stay in cache.  The cap of 64 steps bounds
# the draws thrown away when the last few walks end early.
DRAW_AHEAD = 64

# 99% two-sided normal quantile for Wilson score intervals.
Z_99 = 2.5758293035489004

# Version of the sampler's random stream (the walk's normals and the release
# angles), recorded in every run manifest: a change to the generator, its
# keying, the normal transform or the angle draw must bump it.
SAMPLER_STREAM = "philox4x32-10/box-muller/2"

# Philox4x32 round multipliers and Weyl key increments (Random123).
PHILOX_M = (0xD2511F53, 0xCD9E8D57)
PHILOX_W = (0x9E3779B9, 0xBB67AE85)
PHILOX_ROUNDS = 10
_MASK32 = 0xFFFFFFFF

# One trajectory per row; ``x`` is the hit abscissa on the trap's line, NaN
# when censored.  A row is censored iff its walk did not hit the trap by the
# cap; its ``time`` is then the first accumulated time past the cap.
RECORD_DTYPE = np.dtype([("time", "f8"), ("x", "f8"), ("censored", "?"), ("steps", "i8")])


def _check_word64(value, what, span=1):
    """DomainError unless ``value`` is an integer and value .. value + span - 1
    all lie in [0, 2^64), the range of a Philox key or trajectory index:
    past the top an index would wrap onto another batch's streams, and a
    float would reach the kernel's bit operations."""
    span = max(span, 1)
    if not (isinstance(value, numbers.Integral) and 0 <= int(value) <= 2**64 - span):
        bound = "[0, 2^64)" if span == 1 else f"[0, 2^64 - {span}]"
        raise DomainError(f"{what} must be in {bound} and an integer, got {value!r}")


def _check_cap(t_max):
    """DomainError unless the time cap ``t_max`` is a positive real number
    (inf included: an uncapped walk)."""
    if not (isinstance(t_max, numbers.Real) and t_max > 0.0):  # a NaN fails the comparison
        raise DomainError(f"t_max must be a positive real number, got {t_max!r}")


def philox4x32(c0, c1, c2, c3, k0, k1):
    """The Philox4x32-10 block function on 32-bit words held in uint64.

    The counter words c0..c3 may be arrays or scalars (they broadcast);
    the key words k0, k1 are integers.  Returns the four output words.
    """
    # the rounds update their own temporaries in place, which holds only if
    # every word already has the full shape
    c0, c1, c2, c3 = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in (c0, c1, c2, c3)))
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
    through Box-Muller.  ``index`` and ``step`` may be arrays that broadcast
    against each other (a column of steps against a row of trajectories
    gives one row of draws per step).  g1 is never 0: the radius is
    positive and the cosine of a double never vanishes.
    """
    index = np.asarray(index, dtype=np.uint64)
    step = np.asarray(step, dtype=np.uint64)
    w0, w1, w2, w3 = philox4x32(step, 0, index & _MASK32, index >> 32, seed & _MASK32, seed >> 32)
    radius = np.sqrt(-2.0 * np.log(_open_unit(w0, w1)))
    theta = (2.0 * np.pi) * _open_unit(w2, w3)
    return radius * np.cos(theta), radius * np.sin(theta)


def release_circle(r, n, seed, first_index=0):
    """n independent uniform points on the circle of radius r (origin center).

    Point i takes the angle 2 pi U, with U from the Philox4x32-10 block of
    counter (0, 1, j mod 2^32, j div 2^32) and key (seed mod 2^32, seed div
    2^32), j = first_index + i: a function of (seed, j) alone, so chunks
    with their offsets as ``first_index`` reproduce the whole set.
    """
    require_finite(release_radius=r)
    if not r > 0.0:
        raise DomainError(f"release radius must be positive, got {r!r}")
    n = require_count(n, "release count")
    _check_word64(seed, "seed")
    _check_word64(first_index, "first_index", n)
    index = np.uint64(first_index) + np.arange(n, dtype=np.uint64)
    w0, w1, _, _ = philox4x32(0, 1, index & _MASK32, index >> 32, seed & _MASK32, seed >> 32)
    theta = (2.0 * np.pi) * _open_unit(w0, w1)
    # .tolist() yields the same doubles as float() of each element, faster
    xs = (r * np.cos(theta)).tolist()
    ys = (r * np.sin(theta)).tolist()
    return [PlanePoint(px, py) for px, py in zip(xs, ys)]


# a jump time past the double range reads inf, which censors the walk
@np.errstate(over="ignore")
def sample_batch(trap, starts, t_max, seed, first_index=0):
    """Simulate one trajectory per start point (a sequence of PlanePoints)
    against the segment trap ``trap``, capped at time t_max.

    All live trajectories take their next step together; a trajectory that
    is captured or censored is written to the result and dropped.  Step k
    of trajectory i uses ``philox_normals(seed, first_index + i, k)``, so
    the result is independent of chunking: splitting the starts into
    consecutive pieces and passing each piece's offset as ``first_index``
    reproduces the whole batch.  The normals are drawn several steps ahead
    in one call (``max(1, min(DRAW_AHEAD, DRAW_AHEAD**2 // live))`` steps
    for ``live`` running walks, never past STEP_CAP), and a finished
    walk's unused draws are dropped with it; since each draw depends on
    (seed, trajectory, step) alone, this changes no result.  Returns an
    ``np.recarray`` of ``RECORD_DTYPE``, one row per start, in the
    trap's lengths and times; raises ConvergenceError if a walk exceeds
    STEP_CAP steps, and DomainError for a start that is not a PlanePoint.
    """
    _check_trap(trap)
    _check_cap(t_max)
    _check_word64(seed, "seed")
    c, h = 0.5 * (trap.a + trap.b), 0.5 * (trap.b - trap.a)
    rim = h * (1.0 + ENDPOINT_TOL)  # the capture half-width about c
    try:
        x0 = np.array([p.x for p in starts], dtype=float)
        y0 = np.array([p.y for p in starts], dtype=float)
    except (AttributeError, TypeError):  # a start that is not a PlanePoint, or starts that are not a sequence
        raise DomainError("starts must be a sequence of PlanePoints") from None
    _check_word64(first_index, "first_index", x0.size)
    # the records, filled in place as walks finish; the start rows on the
    # trap keep their abscissa and zero time and steps
    out = np.zeros(x0.size, dtype=RECORD_DTYPE)
    out["x"] = x0

    # the walk runs on abscissae relative to c, which its rows get back at
    # the end; pos holds the rows of the live trajectories
    x = x0 - c
    pos = walked = np.flatnonzero(~((y0 == 0.0) & (np.abs(x) <= rim)))
    x, y = x[pos], y0[pos]
    elapsed = np.zeros(pos.size)
    index = np.uint64(first_index) + pos.astype(np.uint64)
    step = 0
    g1s = g2s = np.empty((0, pos.size))  # normals drawn ahead, one row per step
    while pos.size:
        if step >= STEP_CAP:
            raise ConvergenceError(
                f"trajectory {first_index + pos[0]} from ({x0[pos[0]]}, {y0[pos[0]]}) "
                f"exceeded {STEP_CAP} steps"
            )
        if not len(g1s):
            ahead = max(1, min(DRAW_AHEAD, DRAW_AHEAD**2 // pos.size, STEP_CAP - step))
            g1s, g2s = philox_normals(seed, index, np.arange(step, step + ahead)[:, None])
        g1, g2, g1s, g2s = g1s[0], g2s[0], g1s[1:], g2s[1:]
        # where y != 0, a jump to the axis; where y == 0 (|x| > h), a jump to
        # the vertical line through the nearer endpoint
        off_axis = y != 0.0
        dist = np.where(off_axis, np.abs(y), np.abs(x) - h)
        q = dist / g1
        # |dist / g1| is dist / |g1| bit for bit: division rounds alike for
        # either sign; the time is squared by a product, as pow may differ
        # in the last bit
        offset = np.abs(q) * g2
        q *= q
        elapsed += q
        x = np.where(off_axis, x + offset, np.copysign(h, x))
        y = np.where(off_axis, 0.0, offset)
        step += 1
        # a jump past the double range takes longer than any finite cap;
        # only an uncapped walk goes on from there, and it never returns
        if t_max == math.inf:
            lost = pos[~(np.isfinite(x) & np.isfinite(y))]
            if lost.size:
                raise ConvergenceError(
                    f"trajectory {first_index + lost[0]} from ({x0[lost[0]]}, {y0[lost[0]]}) "
                    "left the double range"
                )

        censored = elapsed > t_max
        # only an axis jump can land on the trap, so its branch replaces the
        # test y == 0: a live on-axis row has |x| - h > h ENDPOINT_TOL,
        # |g1| < 9 and g2 != 0, so its line jump's offset is at least
        # ~1e-40 h in size; make_segment_trap keeps (2 h)^2 a normal double,
        # so h > 7e-155 and the offset never underflows to 0; a NaN abscissa
        # fails the test
        done = censored | (off_axis & (np.abs(x) <= rim))
        # the finished rows and the live ones as indices: take by index costs
        # less than a boolean mask, which counts its rows on every use
        idx = np.flatnonzero(done)
        if idx.size:
            rows = pos.take(idx)
            cens = censored.take(idx)
            out["time"][rows] = elapsed.take(idx)
            out["x"][rows] = np.where(cens, np.nan, x.take(idx))
            out["censored"][rows] = cens
            out["steps"][rows] = step
            live = np.flatnonzero(~done)
            pos, x, y, elapsed, index = pos.take(live), x.take(live), y.take(live), elapsed.take(live), index.take(live)
            g1s, g2s = g1s.take(live, axis=1), g2s.take(live, axis=1)
    out["x"][walked] += c
    return out.view(np.recarray)


def wilson_interval(successes, n):
    """Wilson score interval with z = Z_99 (two-sided 99%) for a binomial
    proportion (vectorized in ``successes``, each in [0, n]; ``n`` is one
    count of at least 1).

    The bounds are probabilities, so they are clipped to [0, 1]; at the
    extremes (0 or n successes) the unclipped arithmetic can stray below 0
    or above 1 by a few 1e-18 of cancellation dust.
    """
    n = require_count(n, "trial count")
    successes = np.asarray(successes, dtype=float)
    if successes.size and not (successes.min() >= 0.0 and successes.max() <= n):  # a NaN fails both
        raise DomainError(f"success counts must lie in [0, {n}]")
    phat = successes / n
    denom = 1.0 + Z_99 * Z_99 / n
    center = (phat + Z_99 * Z_99 / 2.0 / n) / denom  # 2 n would overflow for the largest counts
    # the 1/n outside the root: phat (1 - phat) / n + z^2 / (4 n^2) inside it
    # would reach the subnormal range, and then 0, for counts past about 1e150
    half = (Z_99 / denom) * np.sqrt(successes * (1.0 - phat) + Z_99 * Z_99 / 4.0) / n
    return np.clip(center - half, 0.0, 1.0), np.clip(center + half, 0.0, 1.0)


def _check_grid(times):
    """``times`` as a float array; DomainError unless it is a non-empty 1-d
    grid of finite times in ascending order."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise DomainError("times must be a non-empty 1-d grid")
    if not np.isfinite(times).all():
        raise DomainError("grid times must be finite")
    if np.any(np.diff(times) < 0):
        raise DomainError("times grid must be ascending")
    return times


def survival_curve(records, times):
    """Empirical capture proportion at each grid time with Wilson 99% bands.

    ``records`` is a record array of ``RECORD_DTYPE`` (as returned by
    :func:`sample_batch`).  Returns three arrays on the grid ``times``:
    captured_fraction, ci_low and ci_high.  captured_fraction(t) is the
    share of records with ``not censored and time < t``.  All records must
    share a cap t_max >= max(times); this is checked against the censored
    records (whose times exceed the cap by construction) - a censored time
    at or below the last grid point proves the grid exceeds the cap.
    """
    if len(records) == 0:
        raise DomainError("survival_curve needs at least one record")
    times = _check_grid(times)
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
    return (counts / n, *wilson_interval(counts, n))
