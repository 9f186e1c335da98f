"""Exact disk-trap answers.

For a Brownian particle released at distance r from an absorbing disk of
radius r_T, the exponentially weighted (Abelian) mean of the hitting
probability has the closed form

    f_D(r, tau) = K0(sqrt(2 r^2 / tau)) / K0(sqrt(2 r_T^2 / tau)),

and the time-domain probability itself is the classical heat-conduction
integral

    p_D(r, t) = 1 + (2/pi) * int_0^inf (1/y)
                  * [J0(y r/r_T) Y0(y) - J0(y) Y0(y r/r_T)]
                  / [J0(y)^2 + Y0(y)^2] * exp(-t y^2 / (2 r_T^2)) dy.

Erratum note: the source article for this work prints the integral with a
1/pi prefactor and an exponent "2 r_0"; both are typos (the t -> 0 limit
would give 1/2 instead of 0, and the exponent is dimensionally wrong).  The
transcription above is certified against f_D by the numerical Laplace
transform consistency check in the test suite (agreement 2.5e-7 on
acceptance criterion 3's grid, tolerance 1e-4), and p_disk lies within
3e-15 of Talbot inversion of that Laplace transform at nine points from
t = 0.0125 to 1e5 (the tests assert 1e-13).

The integrand decays only like 1/ln^2(y) as y -> 0+ and oscillates on the
scale pi r_T / r for large y, so the quadrature runs over one variable s
that is logarithmic on (0, y0] and linear on [y0, Y_max]: y = y0 e^s for
s < 0 (plus an exact tail below u = ln y <= -60) and y = y0 (1 + s) for
s >= 0.  One adaptive Gauss-Kronrod integral covers both, from panels
graded toward s = 0 below it, where the integrand's features sit, and
panels of sub-oscillation width above it; at QUAD_TOL a call ends after
one round: one J0/Y0 kernel call on every node.  A curve of times is one
_adaptive_gk run over many integrals: their first round is one kernel
call on the nodes of every time (up to GK_CALL_NODES nodes a call), and a
time still pending then runs its later rounds alone, so each time's value
is bit for bit the one its scalar call gives.
"""

import math
import sys

import numpy as np

from trapprob.errors import ConvergenceError, DomainError, require_finite
from trapprob.specfun import GAMMA, _k0_scaled, bessel_j0_y0

# Absolute quadrature target for p_disk.
QUAD_TOL = 1e-6
# Evaluation budget of one p_disk quadrature (one J0/Y0 kernel call per
# round).
MAX_EVALS = 10**6
# Nodes per integrand call of the first round _adaptive_gk shares among
# many integrals (one integral, and every later round, takes a call of its
# own).
# p_disk's integrand hands the J0/Y0 kernel two elements a node, and the
# kernel gathers 144 B of coefficients per element, so that gather stays
# near 2.4 MB however many times a capture curve has.  Each curve of the
# default figure grid (25 times, at most 6960 nodes) takes one call.
GK_CALL_NODES = 2**13
# Starting panel edges of the log part (y <= y0) at s = -LOG_PANEL_OFFSETS,
# above s_cut.  The integrand's features sit near the top: the oscillations
# of J0(a e^u) thin out like e^u below ln y0, and the tail's Lorentzian is
# centred near u = 0.1.  Panels graded toward the top let a call converge in
# one round.
LOG_PANEL_OFFSETS = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0])


def _mirror(half, sign):
    """The 15 entries of a symmetric rule column from its 8 centre-out ones."""
    half = np.array(half)
    return np.concatenate([sign * half[:0:-1], half])


# Gauss-Kronrod 15-point nodes/weights with the embedded 7-point Gauss rule,
# stored from the centre out and mirrored; the Gauss weights sit at the odd
# Kronrod positions.  Literature values, re-verified in the test suite by
# exact integration of monomials.
_XGK = _mirror(
    [
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ],
    -1.0,
)
_WGK = _mirror(
    [
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ],
    1.0,
)
_WG = np.zeros(15)
_WG[7::2] = [
    0.417959183673469,
    0.381830050505119,
    0.279705391489277,
    0.129484966168870,
]
_WG[7::-2] = _WG[7::2]


def _adaptive_gk(f, edges, tol, max_evals):
    """Adaptive Gauss-Kronrod integration of one or more integrals.

    ``edges`` is a list of the ascending starting panel edges of each
    integral, one array per integral.  ``f`` takes (nodes, owner): nodes
    ascending within each integral, and the index of each node's integral,
    an array, or the int index where every node is one integral's.  One
    integral runs alone (_gk_integral).  Many compute their first round
    together, in calls of at most GK_CALL_NODES nodes over consecutive
    panels; then each settles, and any still pending finishes alone.  So
    each integral's values, errors and evaluations are those of its own
    call, and its evaluations must not exceed max_evals.

    Returns (integrals, error_estimates, evaluations): a list of each
    integral's value, a list of its error estimate and the evaluations of
    all of them.
    """
    if len(edges) == 1:
        value, error, evals = _gk_integral(f, 0, edges[0], tol, max_evals)
        return [value], [error], evals
    panels = [e.size - 1 for e in edges]
    for k, e in enumerate(edges):
        if 15 * panels[k] > max_evals:  # raises before f sees a round
            _gk_integral(f, k, e, tol, max_evals)
    lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    owner = np.repeat(np.arange(len(edges)), panels)
    i15, err = np.empty(lo.size), np.empty(lo.size)
    step = GK_CALL_NODES // 15
    for a in range(0, lo.size, step):
        b = a + step
        i15[a:b], err[a:b] = _gk15(f, lo[a:b], hi[a:b], np.repeat(owner[a:b], 15))
    ends = np.cumsum([0, *panels])
    done = [_gk_integral(f, k, e, tol, max_evals, (i15[a:b], err[a:b]))
            for k, (e, a, b) in enumerate(zip(edges, ends, ends[1:]))]
    return [v for v, _, _ in done], [e for _, e, _ in done], sum(n for _, _, n in done)


def _gk15(f, lo, hi, owner):
    """The GK15 values and |GK15 - G7| errors of the panels lo..hi, from one
    call of f with ``owner``."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _XGK
    fv = f(x.ravel(), owner).reshape(x.shape)
    i15 = (fv * _WGK).sum(axis=1) * half
    return i15, np.abs(i15 - (fv * _WG).sum(axis=1) * half)


def _gk_integral(f, k, edges, tol, max_evals, first=None):
    """Integral k over its starting panel edges, from its first round
    ``first`` (GK15 values, errors) where given; every other round is one
    call f(nodes, k).  Returns (value, error estimate, evaluations).

    Until the summed |GK15 - G7| error drops below tol, each round keeps
    every panel whose error is within its share tol (hi - lo) / (edges[-1]
    - edges[0]) and halves the rest (a NaN error is never kept); halves of
    ascending panels stay ascending.  fsum is exact, so the totals do not
    depend on the order of the kept panels.  ConvergenceError before a
    round would take the evaluations past max_evals.
    """
    lo, hi = edges[:-1], edges[1:]
    values, errors = [], []
    evals = 0
    while True:
        evals += 15 * lo.size
        if evals > max_evals:
            raise ConvergenceError(f"quadrature exceeded {max_evals} evaluations on [{edges[0]:g}, {edges[-1]:g}]")
        i15, err = _gk15(f, lo, hi, k) if first is None else first
        first = None
        total_err = math.fsum([*errors, *err.tolist()])
        if total_err <= tol:
            return math.fsum([*values, *i15.tolist()]), total_err, evals
        keep = err <= tol * (hi - lo) / (edges[-1] - edges[0])
        values += i15[keep].tolist()
        errors += err[keep].tolist()
        if keep.all():  # the shares sum to tol only up to rounding
            return math.fsum(values), total_err, evals
        lo, hi = lo[~keep], hi[~keep]
        mid = 0.5 * (lo + hi)
        lo, hi = np.stack([lo, mid], axis=1).ravel(), np.stack([mid, hi], axis=1).ravel()


def f_disk(r, r_T, tau):
    """Abelian mean of the disk hitting probability, K0-ratio closed form.

    Returns exactly 1 for r <= r_T; otherwise a value in [0, 1] (0 only
    where the ratio underflows).  With kappa = sqrt(2/tau) the ratio is
    exp(-kappa (r - r_T)) S(kappa r) / S(kappa r_T), S(x) = e^x K0(x) from
    one kernel call, so tiny tau cannot divide by an underflowed K0.
    """
    r, r_T, tau = require_finite(r=r, r_T=r_T, tau=tau)
    if not (r_T > 0.0 and r > 0.0 and tau > 0.0):
        raise DomainError(f"f_disk needs positive arguments, got r={r!r} r_T={r_T!r} tau={tau!r}")
    if r <= r_T:
        return 1.0
    kappa = math.sqrt(2.0 / tau)
    damp = math.exp(-kappa * (r - r_T))
    if damp == 0.0:
        # S decreases, so the ratio is at most damp; this also covers every
        # kappa r or kappa r_T that overflows
        return 0.0
    xd = kappa * r_T
    if xd == 0.0:
        raise DomainError(f"sqrt(2/tau) r_T underflows for r_T={r_T!r}, tau={tau!r}")
    s, _ = _k0_scaled(np.array([kappa * r, xd]))
    return min(1.0, damp * float(s[0]) / float(s[1]))


def _plan(r, r_T, t):
    """p_disk's raw value at t where a shortcut gives it, as a float;
    otherwise its quadrature: (y0, starting panel edges in s, exact tail)."""
    if r == r_T:
        return 1.0
    if t == 0.0:
        return 0.0
    gap = r - r_T
    if gap * gap / (4.0 * t) > 80.0 or gap > 18.0 * math.sqrt(t):
        # free-diffusion bound: reaching the disk at all has probability
        # < exp(-gap^2/(4t)) < 1e-34, far below the quadrature target (the
        # second test still holds where gap^2 and 4t both overflow)
        return 0.0

    y0 = min(1.0, r_T / math.sqrt(t))
    y_max = r_T * math.sqrt(32.0 * math.log(10.0) / t)  # damping < 1e-16 beyond
    log_y0 = math.log(y0)
    u_cut = min(-60.0, log_y0 - 20.0)
    n0 = max(4, min(2000, math.ceil((y_max - y0) / (math.pi * r_T / r))))

    # s_cut, the n_top log panel edges s = -LOG_PANEL_OFFSETS above it
    # (ending at s = -0.0), then n0 equal panels up to y_max, spaced as
    # np.linspace(0, stop, n0 + 1) spaces them
    s_cut = u_cut - log_y0
    n_top = LOG_PANEL_OFFSETS.searchsorted(-s_cut)
    stop = y_max / y0 - 1.0
    edges = np.empty(n_top + n0 + 1)
    edges[0] = s_cut
    np.negative(LOG_PANEL_OFFSETS[n_top - 1::-1], out=edges[1:n_top + 1])
    np.multiply(np.arange(1, n0 + 1), stop / n0, out=edges[n_top + 1:])
    edges[-1] = stop

    # Exact tail over u < u_cut: with v = u + gamma - ln 2 and a = r/r_T the
    # integrand is -(pi/2) ln(a) / (v^2 + pi^2/4) up to terms of order
    # e^(2 u_cut) <= e^-120, and its integral over v < -lam is
    # -ln(a) atan(pi / (2 lam)).
    lam = abs(u_cut + GAMMA - math.log(2.0))
    tail = -math.log(r / r_T) * math.atan(math.pi / (2.0 * lam))
    return y0, edges, tail


def _integrand(s, a, inv_2rt2, t, y0):
    """p_disk's integrand at the nodes s, for r/r_T = a; t and y0 are
    floats, or arrays with one entry per node.

    y = y0 e^s below s = 0 (so dy/y = ds), y0 (1 + s) from s = 0 on (dy/y
    = y0 ds/y); one kernel call on the buffer [y | a*y].
    """
    n = s.size
    buf = np.empty(2 * n)
    y = buf[:n]
    np.exp(np.minimum(s, 0.0), out=y)
    y += np.maximum(s, 0.0)  # e^s + 0 below s = 0, 1 + s from there on
    y *= y0
    np.multiply(y, a, out=buf[n:])
    jv, yv = bessel_j0_y0(buf)
    j, ja, yy, ya = jv[:n], jv[n:], yv[:n], yv[n:]
    nd = (ja * yy - j * ya) / (j * j + yy * yy)
    nd *= np.exp(-t * y * y * inv_2rt2)
    nd *= np.minimum(y0 / y, 1.0)  # y0/y from s = 0 on; exactly 1 below, where y <= y0
    return nd


def _p_disk_raw(r, r_T, t):
    """p_disk before clamping; excursions outside [0, 1] stay within the
    quadrature tolerance."""
    plan = _plan(r, r_T, t)
    if isinstance(plan, float):
        return plan
    y0, edges, tail = plan
    a, inv_2rt2 = r / r_T, 1.0 / (2.0 * r_T * r_T)
    [integral], _, _ = _adaptive_gk(lambda s, _: _integrand(s, a, inv_2rt2, t, y0), [edges], QUAD_TOL, MAX_EVALS)
    return 1.0 + (2.0 / math.pi) * (integral + tail)


def _p_disk_curve(r, r_T, times):
    """_p_disk_raw at each of the float times, as a list; every time that
    integrates is one integral of a single _adaptive_gk call.  (Through
    this list and array bookkeeping, a scalar call took 6 to 10% longer.)"""
    out = [_plan(r, r_T, t) for t in times]
    todo = [i for i, plan in enumerate(out) if not isinstance(plan, float)]
    if todo:
        y0s, edges, tails = zip(*[out[i] for i in todo])
        t, y0 = np.array([times[i] for i in todo], dtype=float), np.array(y0s)
        a, inv_2rt2 = r / r_T, 1.0 / (2.0 * r_T * r_T)
        integrals, _, _ = _adaptive_gk(
            lambda s, owner: _integrand(s, a, inv_2rt2, t[owner], y0[owner]), list(edges), QUAD_TOL, MAX_EVALS)
        for i, integral, tail in zip(todo, integrals, tails):
            out[i] = 1.0 + (2.0 / math.pi) * (integral + tail)
    return out


def _check_disk(r, r_T, t):
    """The rules p_disk and hunt_approx share: DomainError unless r, r_T
    and t are finite, r_T > 0 and r >= r_T.  Returns them as floats."""
    r, r_T, t = require_finite(r=r, r_T=r_T, t=t)
    if not r_T > 0.0:
        raise DomainError(f"disk radius must be positive, got {r_T!r}")
    if r < r_T:
        raise DomainError(f"release radius {r!r} inside the disk of radius {r_T!r}")
    return r, r_T, t


def _check_p_disk(r, r_T, t):
    """p_disk's rules for one time t; (r, r_T, t) as floats."""
    r, r_T, t = _check_disk(r, r_T, t)
    if t < 0.0:
        raise DomainError(f"time must be >= 0, got {t!r}")
    two_rt2 = 2.0 * r_T * r_T
    if not (math.isfinite(r / r_T) and two_rt2 > 0.0 and math.isfinite(1.0 / two_rt2)):
        raise DomainError(f"disk radius r_T={r_T!r} too small: r/r_T or 1/(2 r_T^2) overflows (r={r!r})")
    return r, r_T, t


def p_disk(r, r_T, t):
    """Probability that Brownian motion from distance r hits the disk of
    radius r_T by time t, clamped to [0, 1].

    ``t`` may also be a list, tuple or 1-d array of times: the whole curve
    is integrated in one pass and returned as a float array of the same
    length, each entry equal to its scalar call bit for bit.  Every time is
    checked, with the scalar call's rules, before the quadrature starts.

    Raises DomainError for a non-finite argument, r < r_T, t < 0 or an r_T
    so small that r/r_T or 1/(2 r_T^2) overflows, and ConvergenceError if the
    adaptive quadrature exceeds its evaluation budget.
    """
    if isinstance(t, np.ndarray) and t.ndim > 0:
        times = t.tolist()
    elif isinstance(t, (list, tuple)):
        times = list(t)
    else:
        return min(1.0, max(0.0, _p_disk_raw(*_check_p_disk(r, r_T, t))))
    r, r_T, _ = _check_p_disk(r, r_T, 0.0)  # r and r_T, also where the curve is empty
    # an entry that is itself a list (t of 2 or more dimensions) is not a finite real
    times = [_check_p_disk(r, r_T, ti)[2] for ti in times]
    return np.array([min(1.0, max(0.0, v)) for v in _p_disk_curve(r, r_T, times)], dtype=float)


def hunt_approx(r, r_T, t, variant="raw"):
    """Logarithmic large-time approximations to the disk/segment capture
    probability.

    variant="raw":   1 - 2 ln(r/r_T) / ln t
    variant="tau0":  1 - ln(r/r_T) / ln(t / tau0),  tau0 = e^(2 gamma) r_T^2 / 2

    Values are not clamped; callers clamp for plotting.  Where the
    denominator vanishes the limit -inf is returned.
    """
    if variant not in ("raw", "tau0"):
        raise DomainError(f"unknown variant {variant!r}")
    r, r_T, t = _check_disk(r, r_T, t)
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t!r}")
    # where r / r_T overflows, log r - log r_T is still finite
    lr = math.log(r / r_T) if r / r_T < math.inf else math.log(r) - math.log(r_T)
    if lr == 0.0:
        return 1.0
    if variant == "raw":
        denom = math.log(t)
        factor = 2.0
    else:
        tau0 = 0.5 * math.exp(2.0 * GAMMA) * r_T * r_T
        if tau0 >= sys.float_info.min:
            ratio = t / tau0
            # where t / tau0 leaves the double range, log t - log tau0 is
            # still finite
            denom = math.log(ratio) if 0.0 < ratio < math.inf else math.log(t) - math.log(tau0)
        else:
            # tau0 is subnormal or 0 (r_T below about 1e-154): its log from
            # its factors keeps every digit
            denom = math.log(t) - (math.log(0.5) + 2.0 * GAMMA + 2.0 * math.log(r_T))
        factor = 1.0
    if denom == 0.0:
        return -math.inf
    return 1.0 - factor * lr / denom
