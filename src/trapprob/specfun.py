"""Bessel kernels with certified error bounds.

Everything here is evaluated from scratch; no external special-function
library is used at runtime.  K0 is reached two ways:

* ``k0_bounds`` gives two-sided truncation brackets, the paper's own tool.
  Truncating

      K0(x) = -(ln(x/2) + gamma) I0(x) + Psi(x),
      Psi(x) = sum_{n>=1} h_n/(n!)^2 (x^2/4)^n,

  after M terms gives a lower bound for every x > 0, and an explicit
  remainder (Stirling bound on the tail) turns it into an upper bound on a
  known x-range.
* ``k0`` evaluates e^x K0(x) = int_0^inf exp(-2x sinh^2(t/2)) dt by the
  trapezoidal rule, which converges geometrically for this integrand
  (Trefethen & Weideman, SIAM Review 2014).  The kernel ``_k0_scaled``
  works on arrays and carries a certified bound (strip error, truncated
  tail and rounding, derived in its docstring); ``f_disk`` takes its
  K0 ratio from the scaled values, so nothing underflows.

J0 and Y0 use the ascending series up to x = 15 and the Hankel asymptotic
expansion beyond.  The series is the builder of a double-precision table,
summed once at import: its alternating/cancelling sums run in 80-bit
extended precision (``numpy.longdouble``; the Y0 series at x = 15 has terms
of size ~2e5 cancelling down to O(1), which costs ~20 bits - fatal in
double, harmless in extended) at 96 points of (0, 15].  The table splits
(0, 15] into 64 equal pieces, each with degree-8 polynomials for J0 and
for the power part B of the Y0 series, Y0 = (2/pi)((ln(x/2) + gamma) J0 +
B); below x = 0.9375 the pieces are the series' first 9 terms in x^2/4,
so J0(x) is exactly 1.0 for x < 1e-8.  A 65th piece holds the Hankel
expansion's P and x|Q| as degree-8 polynomials in z - 1/2, z = (15/x)^2,
interpolated from the 17-term sums in extended precision at import.  At
run time an argument costs one gathered table column and one double
Horner pass; the arguments past 15 then add the amplitude and the phase.

The K0 truncation sums behind ``k0_bounds`` (``_phi_partial``) run in
extended precision too.  They, the bracket built from them
(``_k0_bracket``) and ``bessel_i`` work elementwise on a scalar or an
array, so ``k0_bounds``, the ``bessel`` table and ``_k0_scaled`` below
1e-8 share one bracket, and the table takes each order's brackets for its
whole grid in one call.
"""

import math

import numpy as np

from trapprob.errors import DomainError, is_finite_real, real_array, require_count, require_finite

# Euler-Mascheroni constant, 30 significant digits.
GAMMA = 0.577215664901532860606512090082

# J0/Y0 crossover: ascending series below, asymptotic expansion above.
JY_SERIES_MAX_X = 15.0

# Trapezoidal e^x K0(x) (see _k0_scaled) on x >= _K0_TRAPEZOID_MIN_X: step
# _K0_H0/sqrt(max(x, 1)), _K0_NODES nodes, at most _K0_BLOCK rows per
# block; _U is the unit roundoff.
_K0_TRAPEZOID_MIN_X = 1e-8
_K0_H0 = 0.25
_K0_NODES = 94
_K0_BLOCK = 128
_K0_HALF_K = 0.5 * np.arange(_K0_NODES)
_U = 2.0**-53
# the smallest subnormal double
_TINY = 5e-324

# Order-0 remainder constant of k0_bounds: 0.97311062304500... rounded up
# (derivation in its docstring).
K0_M0_REMAINDER = 0.974

_LD = np.longdouble
_GAMMA_LD = _LD("0.57721566490153286060651209008240243")
# Ascending-series length (x = 15 needs terms 0..43).
_NSER = 48

# Factorials, harmonic numbers and series coefficients in extended precision.
_FACT_LD = np.ones(_NSER, dtype=_LD)
_HARM_LD = np.zeros(_NSER, dtype=_LD)
for _n in range(1, _NSER):
    _FACT_LD[_n] = _FACT_LD[_n - 1] * _n
    _HARM_LD[_n] = _HARM_LD[_n - 1] + 1 / _LD(_n)

_SQUARES_LD = np.arange(_NSER, dtype=_LD) ** 2

_C_J0 = np.array([(-1) ** n / _FACT_LD[n] ** 2 for n in range(_NSER)], dtype=_LD)
_C_Y0 = np.array(
    [(-1) ** (n + 1) * _HARM_LD[n] / _FACT_LD[n] ** 2 for n in range(_NSER)],
    dtype=_LD,
)
_C_JY = np.stack([_C_J0, _C_Y0])

# Hankel asymptotic coefficients m_k = ((2k-1)!!)^2 / (8^k k!).
_M_HANKEL = [1.0]
for _k in range(1, 34):
    _M_HANKEL.append(_M_HANKEL[-1] * (2 * _k - 1) ** 2 / (8.0 * _k))
_M_HANKEL = np.array(_M_HANKEL)
# P ~ sum_{m<=16} (-1)^m m_{2m} x^(-2m) and x|Q| ~ sum_{m<=15} (-1)^m m_{2m+1}
# x^(-2m) (Q itself is negative) as two columns of coefficients in powers of
# z = (15/x)^2, in extended precision, padded with zero rows to the series'
# length.
_C_HANKEL = np.zeros((_NSER, 2), dtype=_LD)
_C_HANKEL[:17, 0] = _M_HANKEL[0:34:2]
_C_HANKEL[:16, 1] = _M_HANKEL[1:33:2]
_C_HANKEL *= ((-1.0) ** np.arange(_NSER) / _LD(JY_SERIES_MAX_X) ** (2 * np.arange(_NSER)))[:, None]

# The J0/Y0 table on (0, JY_SERIES_MAX_X] (see _jy_table): _JY_PIECES
# pieces of width _JY_WIDTH (15/64, exact), each a polynomial of degree
# _JY_DEGREE; the first _JY_SERIES_PIECES (up to x = 0.9375) are the series
# in x^2/4.  The builder sums the series at _JY_BLOCK_NODES points in each
# of _JY_BLOCKS blocks of pieces.
_JY_PIECES = 64
_JY_WIDTH = JY_SERIES_MAX_X / _JY_PIECES
_JY_DEGREE = 8
_JY_SERIES_PIECES = 4
_JY_BLOCKS = 4
_JY_BLOCK_NODES = 24
# ln(x/2) + gamma = ln(x) + _Y0_LOG_SHIFT; x/2 underflows to 0 for the
# smallest subnormal x
_Y0_LOG_SHIFT = GAMMA - math.log(2.0)


class BoundedValue:
    """A real number together with a certified absolute error bound.

    The producing routine guarantees that the true value lies in
    ``[value - abs_error_bound, value + abs_error_bound]`` whenever its
    preconditions held.  Both are stored as floats; DomainError unless
    both are finite real scalars and the bound is >= 0.
    """

    __slots__ = ("value", "abs_error_bound")

    def __init__(self, value, abs_error_bound):
        self.value, self.abs_error_bound = require_finite(value=value, abs_error_bound=abs_error_bound)
        if not self.abs_error_bound >= 0.0:
            raise DomainError(f"abs_error_bound must be >= 0, got {abs_error_bound!r}")

    @property
    def lower(self):
        return self.value - self.abs_error_bound

    @property
    def upper(self):
        return self.value + self.abs_error_bound

    def __repr__(self):
        return f"BoundedValue({self.value!r}, {self.abs_error_bound!r})"

    def __eq__(self, other):
        if not isinstance(other, BoundedValue):
            return NotImplemented
        return (self.value, self.abs_error_bound) == (other.value, other.abs_error_bound)


def bessel_i(order, x):
    """Modified Bessel function I0 or I2 by the ascending power series.

    Takes a real scalar, which gives a Python float, or an array or
    sequence of them, which gives an ndarray of its shape.  Valid for
    0 <= x <= 50 (all-positive terms, no cancellation); each entry's series
    is truncated once its next term drops below 1e-16 relative, so an entry
    depends on its own x alone.

    Raises
    ------
    DomainError
        If the order is not 0 or 2, x is not real, or an entry lies outside
        [0, 50] (the message names the first such entry).
    """
    if order not in (0, 2):
        raise DomainError(f"bessel_i supports orders 0 and 2, got {order!r}")
    xs = real_array(x, "bessel_i needs 0 <= x <= 50 and a real x")
    bad = ~((xs >= 0.0) & (xs <= 50.0))  # a NaN is bad
    if bad.any():
        raise DomainError(f"bessel_i needs 0 <= x <= 50, got {float(xs[bad][0])!r}")
    # I_n(x) = sum_k q^(k+n/2) / (k! (k+n)!): leading term 1 for I0, q/2 for I2;
    # every entry runs the series until its own term stops, a stopped one adds 0
    q = xs * xs / 4.0
    term = total = np.ones_like(q) if order == 0 else q / 2.0
    live = np.ones(q.shape, dtype=bool)
    k = 0
    while live.any():
        k += 1
        term = term * (q / (k * (k + order)))
        total = total + np.where(live, term, 0.0)
        live &= term > 1e-16 * total
    return float(total) if total.ndim == 0 else total


def _ld_horner(coefficients, points):
    """Column c of ``coefficients`` (rows in ascending powers) as a
    polynomial at the extended-precision points ``points[c]``, every column
    in one Horner pass; the values in the order of ``points``."""
    t = np.concatenate(points)
    out = np.zeros_like(t)
    for row in np.repeat(coefficients, [p.size for p in points], axis=1)[::-1]:
        out *= t
        out += row
    return out


def _jy_table():
    """The coefficients of the J0/Y0 table: ``table[i, f, k]`` is the
    power-i coefficient of function f on piece k.

    Pieces k < 64 cover [k, k + 1] * _JY_WIDTH, with f = 0 for A = J0 and
    f = 1 for B = sum_n _C_Y0[n] (x^2/4)^n, so that
    Y0(x) = (2/pi)((ln(x/2) + gamma) A + B).  Piece k >= _JY_SERIES_PIECES
    is the degree-8 interpolant at its 9 Chebyshev points, in powers of
    x - (k + 1/2) _JY_WIDTH.  The earlier pieces are the series' first 9
    coefficients, in powers of x^2/4; the next term is below 9e-18 for A
    and 3e-17 for B there.  Piece 64 (x > 15) holds the Hankel P (f = 0)
    and x|Q| (f = 1) of _C_HANKEL, interpolated the same way in powers of
    z - 1/2, z = (15/x)^2 on [0, 1].

    The extended-precision series runs only at the 24 Chebyshev points of
    each of the 4 blocks of 16 pieces; the rest runs in double.  The
    blocks' degree-23 barycentric interpolants give the values at the
    pieces' points (for these entire functions their error is far below
    the series' own rounding), one matrix for every block.  Each piece's
    powers then solve its Vandermonde system in the points' unit
    cos(theta), by LU with partial pivoting: being backward stable, it
    matches the values to rounding, which multiplying by a precomputed
    inverse, with entries in the hundreds, would not.
    """
    n = _JY_DEGREE + 1
    per_block = _JY_PIECES // _JY_BLOCKS
    # a piece's points lie cos(theta) half-widths from its centre, a block's cos(phi)
    theta = np.pi * (np.arange(n) + 0.5) / n
    phi = np.pi * (np.arange(_JY_BLOCK_NODES) + 0.5) / _JY_BLOCK_NODES
    # the pieces' points in half-widths of their block, then the barycentric
    # weights of the block's points at them (rows sum to 1)
    points = ((np.arange(per_block)[:, None] - (per_block - 1) / 2 + np.cos(theta) / 2) / (per_block / 2)).ravel()
    kernel = (-1.0) ** np.arange(_JY_BLOCK_NODES) * np.sin(phi) / (points[:, None] - np.cos(phi))
    kernel /= kernel.sum(axis=1, keepdims=True)
    block_width = _LD(_JY_WIDTH) * per_block
    nodes = (np.arange(_JY_BLOCKS, dtype=_LD)[:, None] + 0.5 + np.cos(phi) / 2) * block_width
    t = (nodes * nodes / 4).ravel()
    z = 0.5 + np.cos(theta).astype(_LD) / 2
    ab = _ld_horner(np.concatenate([_C_JY.T, _C_HANKEL], axis=1), [t, t, z, z]).astype(float)
    series, hankel = ab[:2 * t.size].reshape(2, _JY_BLOCKS, _JY_BLOCK_NODES), ab[2 * t.size:].reshape(2, 1, n)
    values = np.concatenate([(series @ kernel.T).reshape(2, _JY_PIECES, n), hankel], axis=1)  # function, piece, point
    powers = np.linalg.solve(np.vander(np.cos(theta), increasing=True), values.reshape(-1, n).T)
    table = powers.reshape(n, 2, _JY_PIECES + 1)
    table[..., :-1] *= ((2.0 / _JY_WIDTH) ** np.arange(n))[:, None, None]
    table[..., -1] *= (2.0 ** np.arange(n))[:, None]
    table[:, :, :_JY_SERIES_PIECES] = _C_JY[:, :n].T[..., None]
    return table


_JY_TABLE = _jy_table()
# the centre of each piece on (0, 15]
_JY_CENTRES = (np.arange(_JY_PIECES) + 0.5) * _JY_WIDTH


# past about 1e154, x^2 and pi x overflow to inf: the Hankel piece's z then
# reads 0 and the amplitude 0, within its absolute accuracy (and past 4e307
# x / _JY_WIDTH overflows before it is capped at the last piece)
@np.errstate(over="ignore")
def _j0_y0_arrays(x):
    """Vectorized (J0, Y0) on a strictly positive float array: one table
    piece and one Horner pass per argument, then the Hankel amplitude and
    phase on the arguments past 15, gathered once by index."""
    big = np.flatnonzero(x > JY_SERIES_MAX_X)
    # the piece: x / _JY_WIDTH rounded down on (0, 15] (15 itself in the
    # last), the Hankel piece past 15
    k = np.minimum(x * (1.0 / _JY_WIDTH), _JY_PIECES - 1).astype(np.intp)
    u = np.where(k < _JY_SERIES_PIECES, 0.25 * x * x, x - _JY_CENTRES.take(k))
    if big.size:
        xb = x.take(big)
        k.put(big, _JY_PIECES)
        u.put(big, JY_SERIES_MAX_X**2 / (xb * xb) - 0.5)
    rows = _JY_TABLE.take(k, axis=2)  # power, function, element
    ab = rows[_JY_DEGREE] * u
    for row in rows[_JY_DEGREE - 1:0:-1]:  # Horner, both functions together
        ab += row
        ab *= u
    ab += rows[0]
    j = ab[0]
    y = (2.0 / math.pi) * ((np.log(x) + _Y0_LOG_SHIFT) * j + ab[1])
    if big.size:
        p, q = ab.take(big, axis=1)  # P and x|Q|
        q /= xb  # |Q| = -Q
        amp = np.sqrt(2.0 / (np.pi * xb))
        w = xb - np.pi / 4.0
        cw, sw = np.cos(w), np.sin(w)
        j.put(big, amp * (p * cw + q * sw))  # amp (P cos w - Q sin w)
        y.put(big, amp * (p * sw - q * cw))  # amp (P sin w + Q cos w)
    return j, y


def bessel_j0_y0(x):
    """Order-zero Bessel functions (J0(x), Y0(x)) for finite x > 0.

    Accepts a scalar or an ndarray.  Accuracy: for x <= 15 (the table built
    from the ascending series) within 1e-14 absolute for J0 and
    3e-14 max(1, |Y0|) for Y0 against mpmath, and within 1.5e-14 and
    3e-14 max(1, |Y0|) of the extended-precision series itself (measured
    6e-15 and 1.5e-14, both at the top of the range, where the series' own
    rounding is largest); for x > 15 (the Hankel piece) within 1e-14
    absolute of mpmath on (15, 1e4] (measured 4.5e-15) and within 2e-16
    of the 17-term expansion summed directly, up to the largest double.
    Each entry depends on its own argument only.

    Raises
    ------
    DomainError
        If any entry is <= 0 (Y0 has a logarithmic singularity at 0), not
        finite or not a real number.
    """
    arr = real_array(x, "bessel_j0_y0 requires real x in the double range")
    if arr.size and not (arr.min() > 0.0 and arr.max() < math.inf):  # a NaN fails both
        raise DomainError("bessel_j0_y0 requires finite x > 0")
    j, y = _j0_y0_arrays(arr.reshape(-1))
    if arr.ndim == 0:
        return float(j[0]), float(y[0])
    return j.reshape(arr.shape), y.reshape(arr.shape)


def _phi_partial(x, m):
    """Extended-precision truncated sums -(ln(x/2)+g) + sum_{n<=k} (...) of
    the K0 series for k = 0..m, from one pass: an extended array of shape
    (m + 1,) + shape of x, elementwise in a float or float array x.

    This prefix pass is shared by every truncation order of k0_bounds(),
    which keeps the bracket monotone in m down to the last bit.  Each
    entry is the same elementwise extended arithmetic whatever the array,
    so a sum does not depend on the other arguments.
    """
    if m >= _NSER:
        raise DomainError(f"truncation order {m} beyond tabulated range {_NSER - 1}")
    x = np.asarray(x, dtype=_LD)[()]  # a scalar stays a numpy scalar
    t = x * x / 4
    ell = np.log(x / 2) + _GAMMA_LD
    sums = np.empty((m + 1,) + x.shape, dtype=_LD)
    sums[0] = s = -ell
    term = _LD(1.0)
    with np.errstate(over="ignore"):  # huge x: the sum runs to -inf
        for n in range(1, m + 1):
            term = term * t / _SQUARES_LD[n]
            s = s + term * (_HARM_LD[n] - ell)
            sums[n] = s
    return sums


def _k0_bracket(x, m, partial, i0):
    """The order-m bracket (lower, upper), elementwise on a float or float
    array x, from its prefix sums ``partial`` (row m of _phi_partial) and
    ``i0`` = I0(x) (+inf beyond 50).

    The upper bound adds a remainder to lower.  At m = 0 it is
    K0_M0_REMAINDER q |ln q|, q = x^2/4, on x < 2e^-gamma.  At m >= 1 it is
    the Stirling tail I0/(2 pi (m+1)) (e y)^(2m+2), y = x/(2(m+1)), times
    |ln y| for x < 2e^-gamma, or times gamma + ln(m+1) for
    2e^-gamma <= x < 2e^(h_m - gamma); each factor is the larger on its own
    range, so the tail takes the larger product.  Upper is +inf from
    x = 2e^(h_m - gamma) on (h_0 = 0: 2e^-gamma at m = 0).  The logs are
    taken of q or y plus the smallest subnormal, which keeps log(0) out and
    moves only remainders far below lower's last bit.  The power is
    exponentiated in extended precision and rounded once to a double, as
    math.exp rounds it; numpy's double exp is not correctly rounded.
    """
    # past the range the power and x^2 overflow and a sum below the double
    # range reads -inf, so lower + tail may be -inf + inf; np.where drops them
    with np.errstate(over="ignore", invalid="ignore"):
        lower = np.float64(partial)
        if m == 0:
            q = x * x / 4.0
            tail = K0_M0_REMAINDER * q * abs(np.log(q + _TINY))
        else:
            mp1 = m + 1
            ln_y = np.log(x / (2.0 * mp1) + _TINY)
            pw = np.float64(np.exp((2 * mp1) * (1.0 + ln_y), dtype=_LD))
            c = i0 / (2.0 * math.pi)
            tail = np.maximum(c / mp1 * pw * abs(ln_y), c * (GAMMA + math.log(mp1)) / mp1 * pw)
        return lower, np.where(x < 2.0 * math.exp(float(_HARM_LD[m]) - GAMMA), lower + tail, math.inf)


def k0_bounds(x, m):
    """Two-sided truncation bracket (lower, upper) for K0(x) at order m.

    x is a real scalar (DomainError for anything else, an array included).
    The lower bound holds for every x > 0; it is -inf where the truncated
    sum lies below the double range (from x = 1.8e153 at m = 1, 1.3e20 at
    m = 8, 2.5e5 at m = 40).
    The upper bound holds for x < 2e^(h_m - gamma); beyond that the bracket
    is vacuous and upper is returned as +inf.  At m = 0 the upper bound is
    lower + C q |ln q| with q = x^2/4 and C = 0.974, on x < 2e^-gamma.

    Derivation of C: write L = -ln(x/2) - gamma >= 0 (the order-0 lower
    bound) and R0 = K0 - L.  From the ascending series,
    R0 / (q |ln q|) = sum_{n>=1} q^(n-1) (h_n + L) / ((n!)^2 2 (L + gamma)).
    Each term is nonincreasing in L because h_n >= 1 > gamma, so the sup over
    the range is the limit x -> 2e^-gamma (L -> 0), where it equals
    K0(2e^-gamma) e^(2 gamma) / (2 gamma) = 0.97311062304500...;
    C is that value rounded up.
    """
    if not (is_finite_real(x) and x > 0.0):
        raise DomainError(f"k0_bounds requires a finite real scalar x > 0, got {x!r}")
    m = require_count(m, "k0_bounds' order", minimum=0)
    x = float(x)
    lower, upper = _k0_bracket(x, m, _phi_partial(x, m)[m], bessel_i(0, x) if x <= 50.0 else math.inf)
    return float(lower), float(upper)


def _k0_scaled(x):
    """e^x K0(x) with a certified absolute error bound, elementwise.

    Takes a 1-D float array of finite x > 0 and returns the arrays (S, err)
    with |S - e^x K0(x)| <= err.  For x >= 1e-8 this is the trapezoidal
    rule for

        e^x K0(x) = int_0^inf w(t) dt,   w(t) = exp(-2x sinh^2(t/2)),

    with step h = 0.25/sqrt(max(x, 1)) and the 94 nodes t_k = k h,
    S = h (w(0)/2 + sum_{k=1}^{93} w(t_k)), run on blocks of at most 128
    rows; each row is reduced by ``sum(axis=1)``, so an entry does not
    depend on the rest of the array.  Below 1e-8 (where the integrand
    decays too late for 94 nodes) S is e^x times the midpoint of the
    order-1 k0_bounds bracket.

    The bound err = u ((10 + 93 h) h sum_k w_k A_k + 106 S), u = 2^-53 and
    A = 2x sinh^2(t/2), covers three terms: the rule over all of Z against
    the integral (strip term), the nodes k >= 94 left out (tail term), and
    rounding.  About 1.2e-14 S in all.

    Strip term (Trefethen & Weideman, "The exponentially convergent
    trapezoidal rule", SIAM Review 56 (2014), Thm 5.1).  w is entire and
    even, and for 0 < a < pi/2 and |b| < a,
    |w(t+ib)| = exp(-x (cosh t cos b - 1)), so
    int |w(t+ib)| dt = 2 e^x K0(x cos b) <= M := 2 e^x K0(x cos a), and w
    decays uniformly in the strip.  The rule over all of Z is then within
    2M/(e^{2 pi a/h} - 1) of the integral over R; halving for the even w,
    the error is at most 2 e^{x a^2/2} B(y) / (e^c - 1) with y = x cos a,
    c = 2 pi a/h (1 - cos a <= a^2/2) and any B(y) >= e^y K0(y):
    B = sqrt(pi/(2y)) from sinh s >= s, and for y < 2 also
    B = ln(2/y) + E1(1) e^y (split the integral at e^t = 2/y, bound w by 1
    before and use cosh t - 1 >= e^t/2 - 1 after).  Take a = min(1.55,
    8 pi/sqrt(x)), which minimises x a^2/2 - c for large x; cos 1.55 > 0.0207.
    - x <= 1: c = 38.955 and x a^2/2 <= 1.2013, so the term is below
      8.02e-17 B.  With L = ln(1/x), B <= 4.8 + L and
      S >= max(S(1), K0(x)) >= max(1.144, L + ln 2 - gamma), so B <= 5.1 S.
    - x >= 1: S >= (7/8) sqrt(pi/(2x)) (the asymptotic series encloses
      e^x K0(x)), and B <= sqrt(pi/(2 * 0.0207 x)) <= 7.95 S.  Up to
      x = 262.9, a = 1.55 and x a^2/2 - c <= 1.2013 x - 38.955 sqrt(x)
      <= -37.754; beyond, it is -32 pi^2.
    So the strip term is below 6.4e-16 S < 6 u S everywhere.

    Tail term.  w decreases on t > 0, so the omitted nodes sum to at most
    int_T^inf w, T = 93 h.  With v = sinh(t/2), dt = 2 dv/sqrt(1 + v^2) and
    1/sqrt(1 + v^2) <= v min(1/V, 1/V^2) for v >= V = sinh(T/2), that is at
    most w(T) min(1, V)/A(T).  For x <= 1, A(T) >= 62 and S >= S(1) > 1;
    for x >= 1, A(T) >= 270 and S >= (7/8) sqrt(pi/(2x)); either way the
    tail is below 1e-28 S.

    Rounding term.  Taking numpy's sinh and exp to within 2 ulp, the
    computed A(t_k) is within (10 + t_k) u A(t_k) (the node t_k/2 = h k/2,
    sqrt(x), sinh, the product and the square), so w(t_k) is within
    u w (2 + (10 + t_k) A).  Summing 94 nonnegative terms adds 93 u sum w,
    and the factor h one more u: at most u ((10 + 93 h) h sum w A + 96 S).
    The 106 S holds these 96, the strip term's 6 and 4 to spare for the
    tail, second-order terms and the bound's own arithmetic.
    """
    s = np.empty_like(x)
    wa = np.empty_like(x)  # sum_k w_k A_k per row
    xt = np.maximum(x, _K0_TRAPEZOID_MIN_X)  # rows below it are replaced last
    h = _K0_H0 / np.sqrt(np.maximum(xt, 1.0))
    q = np.sqrt(xt)
    for i in range(0, x.size, _K0_BLOCK):
        rows = slice(i, i + _K0_BLOCK)
        v = q[rows, None] * np.sinh(h[rows, None] * _K0_HALF_K)  # stays in range for any x
        arg = 2.0 * (v * v)
        w = np.exp(-arg)
        w[:, 0] = 0.5
        s[rows] = w.sum(axis=1) * h[rows]
        wa[rows] = (w * arg).sum(axis=1)
    err = _U * ((10.0 + 93.0 * h) * h * wa + 106.0 * s)

    tiny = x < _K0_TRAPEZOID_MIN_X
    if tiny.any():
        xs = x[tiny]
        lower, upper = _k0_bracket(xs, 1, _phi_partial(xs, 1)[1], bessel_i(0, xs))
        s[tiny] = np.exp(xs) * (0.5 * (lower + upper))
        err[tiny] = np.exp(xs) * (0.5 * (upper - lower)) + 8.0 * _U * s[tiny]
    return s, err


def _k0_values(x):
    """(K0, certified absolute error bound) on a 1-D float array of finite
    x > 0, from one _k0_scaled call.

    Multiplying by e^-x costs at most 4 u S on top of e^-x err; the added
    2^-1073 covers subnormal results, and where e^-x underflows the value is
    0 with bound 2^-1073 (K0(x) < 2^-1075 there).
    """
    s, err = _k0_scaled(x)
    scale = np.exp(-x)
    return scale * s, scale * (err + 4.0 * _U * s) + 2.0**-1073


def k0(x):
    """Modified Bessel function K0(x) with a certified error bound.

    The value is e^-x times the trapezoidal e^x K0(x) of ``_k0_scaled``
    (relative error about 4e-16 against mpmath; the order-1 truncation
    bracket below x = 1e-8), and 0 where e^-x underflows (x > 745.13).
    Returns a :class:`BoundedValue`; the bound is derived in
    ``_k0_scaled``'s docstring.  x is a real scalar (DomainError for
    anything else, an array included).
    """
    if not (is_finite_real(x) and x > 0.0):
        raise DomainError(f"k0 requires a finite real scalar x > 0, got {x!r}")
    value, bound = _k0_values(np.array([float(x)]))
    return BoundedValue(value[0], bound[0])
