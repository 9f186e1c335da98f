"""Bessel kernels with certified truncation bounds.

Everything here is evaluated from scratch (ascending series plus large-x
asymptotics); no external special-function library is used at runtime.  The
centrepiece is a pair of two-sided truncation brackets for K0: truncating

    K0(x) = -(ln(x/2) + gamma) I0(x) + Psi(x),
    Psi(x) = sum_{n>=1} h_n/(n!)^2 (x^2/4)^n,

after M terms gives a lower bound for every x > 0, and an explicit
remainder (Stirling bound on the tail) turns it into an upper bound on a
known x-range.  ``k0_bounds`` exposes the bracket; ``k0`` evaluates a deep
truncation (M = 40) and returns the value together with a certified
absolute error bound.

Internally the alternating/cancelling series run in 80-bit extended
precision (``numpy.longdouble``): the Y0 series at x = 15 has terms of
size ~2e5 cancelling down to O(1), which costs ~20 bits - fatal in double,
harmless in extended.  Each J0/Y0 argument gets only the series terms it
needs: with the arguments sorted in descending order, Horner term n runs
on the leading entries with x > ``_JY_TERM_X[n]``, so an array of small
arguments costs a few terms instead of all 48, with the same result bits.
"""

import math

import numpy as np

from trapprob.errors import DomainError

# Euler-Mascheroni constant, 30 significant digits.
GAMMA = 0.577215664901532860606512090082

# Crossover points: ascending series below, asymptotic expansion above.
K0_SERIES_MAX_X = 8.0
JY_SERIES_MAX_X = 15.0

# Truncation order of the deep K0 series used by k0(); the bracket width at
# x = 8 is ~1e-45, far below the 1e-14*max(1,|K0|) accuracy target.
K0_DEEP_M = 40

# Order-0 remainder constant of k0_bounds: 0.97311062304500... rounded up
# (derivation in its docstring).
K0_M0_REMAINDER = 0.974

_LD = np.longdouble
_GAMMA_LD = _LD("0.57721566490153286060651209008240243")
# Ascending-series length.  The J0/Y0 kernel truncates per element (see
# _JY_TERM_X): x = 15 needs terms 0..43, x < 1e-3 at most 5 and x < 1e-8 two.
_NSER = 48

# Factorials, harmonic numbers and series coefficients in extended precision.
_FACT_LD = np.ones(_NSER, dtype=_LD)
_HARM_LD = np.zeros(_NSER, dtype=_LD)
for _n in range(1, _NSER):
    _FACT_LD[_n] = _FACT_LD[_n - 1] * _n
    _HARM_LD[_n] = _HARM_LD[_n - 1] + 1 / _LD(_n)

_C_J0 = np.array([(-1) ** n / _FACT_LD[n] ** 2 for n in range(_NSER)], dtype=_LD)
_C_Y0 = np.array(
    [(-1) ** (n + 1) * _HARM_LD[n] / _FACT_LD[n] ** 2 for n in range(_NSER)],
    dtype=_LD,
)

# _JY_TERM_X[n] is the largest x at which term n and every later term of the
# J0 and Y0 sums, max(|_C_J0[k]|, |_C_Y0[k]|) (x^2/4)^k for k >= n, stay
# below _JY_TERM_TOL; term 0 is always applied (_JY_TERM_X[0] = 0).  Such
# terms sit far below the extended-precision rounding of the sums, so
# leaving them out keeps the double results bit for bit.  The margin
# matters near the zeros of J0 and Y0, where a double ulp is finer than
# that rounding: against the full 48-term sums on 9.6e6 arguments, most of
# them packed within 1e-7 of a zero, a tolerance of 1e-22 changed 1310 results,
# 1e-24 changed 5 and 1e-26 none.  Closed form per term, then the running
# minimum over the later terms.
_JY_TERM_TOL = 1e-30
_ln_coef = np.log(np.maximum(np.abs(_C_J0), np.abs(_C_Y0))[1:]).astype(float)
_x_k = 2.0 * np.exp((math.log(_JY_TERM_TOL) - _ln_coef) / (2 * np.arange(1, _NSER)))
_JY_TERM_X = np.concatenate([[0.0], np.minimum.accumulate(_x_k[::-1])[::-1]])

# Hankel asymptotic coefficients m_k = ((2k-1)!!)^2 / (8^k k!).
_M_HANKEL = [1.0]
for _k in range(1, 34):
    _M_HANKEL.append(_M_HANKEL[-1] * (2 * _k - 1) ** 2 / (8.0 * _k))
_M_HANKEL = np.array(_M_HANKEL)


class BoundedValue:
    """A real number together with a certified absolute error bound.

    The producing routine guarantees that the true value lies in
    ``[value - abs_error_bound, value + abs_error_bound]`` whenever its
    preconditions held.
    """

    __slots__ = ("value", "abs_error_bound")

    def __init__(self, value, abs_error_bound):
        if not (abs_error_bound >= 0.0 and math.isfinite(abs_error_bound)):
            raise DomainError("abs_error_bound must be finite and >= 0")
        self.value = float(value)
        self.abs_error_bound = float(abs_error_bound)

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


def harmonic_number(n):
    """n-th harmonic number 1 + 1/2 + ... + 1/n (0 for n = 0)."""
    if n != int(n) or n < 0:
        raise DomainError(f"harmonic_number needs a nonnegative integer, got {n!r}")
    n = int(n)
    if n < _NSER:
        return float(_HARM_LD[n])
    return math.fsum(1.0 / k for k in range(1, n + 1))


def bessel_i(order, x):
    """Modified Bessel function I0 or I2 by the ascending power series.

    Valid for 0 <= x <= 50 (all-positive terms, no cancellation); the series
    is truncated once the next term drops below 1e-16 relative.
    """
    if order not in (0, 2):
        raise DomainError(f"bessel_i supports orders 0 and 2, got {order!r}")
    if not (0.0 <= x <= 50.0):
        raise DomainError(f"bessel_i needs 0 <= x <= 50, got {x!r}")
    q = x * x / 4.0
    if order == 0:
        term, total = 1.0, 1.0
        k = 0
        while True:
            k += 1
            term *= q / (k * k)
            total += term
            if term <= 1e-16 * total:
                return total
    # I2(x) = sum_k q^(k+1) / (k! (k+2)!),  leading term q/2
    term, total = q / 2.0, q / 2.0
    k = 0
    if term == 0.0:
        return 0.0
    while True:
        k += 1
        term *= q / (k * (k + 2))
        total += term
        if term <= 1e-16 * total:
            return total


def _j0_y0_arrays(x):
    """Vectorized (J0, Y0) on a strictly positive float array."""
    j = np.empty_like(x)
    y = np.empty_like(x)

    small = x <= JY_SERIES_MAX_X
    if small.any():
        neg = -x[small]
        order = np.argsort(neg)  # series arguments in descending order
        idx = np.flatnonzero(small)[order]
        # counts[n]: the leading entries that need term n (x > _JY_TERM_X[n])
        counts = np.searchsorted(neg[order], -_JY_TERM_X)
        xs = x[idx].astype(_LD)
        t = xs * xs / 4
        js = np.zeros_like(t)
        ps = np.zeros_like(t)
        for n in range(np.count_nonzero(counts) - 1, -1, -1):  # Horner in t
            c = counts[n]
            jv, pv, tv = js[:c], ps[:c], t[:c]
            jv *= tv
            jv += _C_J0[n]
            pv *= tv
            pv += _C_Y0[n]
        ell = np.log(xs / 2) + _GAMMA_LD
        j[idx] = js.astype(float)
        y[idx] = ((2 / _LD(np.pi)) * (ell * js + ps)).astype(float)

    big = ~small
    if big.any():
        xb = x[big]
        xi2 = 1.0 / (xb * xb)
        # P ~ sum (-1)^m m_{2m} x^(-2m),  Q ~ -sum (-1)^m m_{2m+1} x^(-2m-1)
        p = np.zeros_like(xb)
        q = np.zeros_like(xb)
        for m in range(16, -1, -1):
            p = p * xi2 + (-1) ** m * _M_HANKEL[2 * m]
        for m in range(15, -1, -1):
            q = q * xi2 + (-1) ** m * _M_HANKEL[2 * m + 1]
        q = -q / xb
        amp = np.sqrt(2.0 / (np.pi * xb))
        w = xb - np.pi / 4.0
        cw, sw = np.cos(w), np.sin(w)
        j[big] = amp * (p * cw - q * sw)
        y[big] = amp * (p * sw + q * cw)

    return j, y


def bessel_j0_y0(x):
    """Order-zero Bessel functions (J0(x), Y0(x)) for x > 0.

    Accepts a scalar or an ndarray.  Accuracy: better than 1e-12 absolute for
    x <= 15 (ascending series) and 1e-10 for larger x (Hankel phase/amplitude
    asymptotics); in practice both branches sit near 1e-14.

    Raises
    ------
    DomainError
        If any entry is <= 0 (Y0 has a logarithmic singularity at 0).
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not np.all(arr > 0.0):
        raise DomainError("bessel_j0_y0 requires x > 0")
    j, y = _j0_y0_arrays(np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(j[0]), float(y[0])
    return j.reshape(arr.shape), y.reshape(arr.shape)


def _phi_partial(x, m):
    """Extended-precision truncated sum -(ln(x/2)+g) - sum_{n<=m} (...).

    This is the shared accumulation behind both k0() and k0_bounds(); using
    one code path makes the bracket monotone in m down to the last bit.
    """
    t = _LD(x) * _LD(x) / 4
    ell = np.log(_LD(x) / 2) + _GAMMA_LD
    s = -ell
    term = _LD(1.0)
    for n in range(1, m + 1):
        term = term * t / (_LD(n) * _LD(n))
        s = s + term * (_HARM_LD[n] - ell)
    return s


def _k0_tail(x, m):
    """Stirling remainder attached to the order-m truncation upper bound.

    Two regimes: for x < 2e^-gamma the tail carries |ln(x/(2(m+1)))|; for
    2e^-gamma <= x < 2e^(h_m - gamma) a (gamma + ln(m+1)) factor replaces the
    log.  Outside those ranges the upper bound is vacuous (+inf).
    """
    mp1 = m + 1
    # e^(2m+2) (x / (2(m+1)))^(2m+2), evaluated in logs to dodge under/overflow
    ln_pw = (2 * mp1) * (1.0 + math.log(x / (2.0 * mp1)))
    i0 = bessel_i(0, x) if x <= 50.0 else math.inf
    if x < 2.0 * math.exp(-GAMMA):
        return i0 / (2.0 * math.pi) / mp1 * math.exp(ln_pw) * abs(math.log(x / (2.0 * mp1)))
    if x < 2.0 * math.exp(float(_HARM_LD[m]) - GAMMA):
        return i0 / (2.0 * math.pi) * (GAMMA + math.log(mp1)) / mp1 * math.exp(ln_pw)
    return math.inf


def _k0_scaled_sum(x):
    """Large-x expansion sum (-1)^k m_k x^-k of e^x K0(x) / sqrt(pi/2x).

    Returns (sum, first omitted term); the sum is truncated at its smallest
    term or once terms drop below 1e-18 relative.
    """
    s = 1.0
    term = 1.0
    prev = math.inf
    for k in range(1, 33):
        term *= (2 * k - 1) ** 2 / (8.0 * k * x)
        if term >= prev:  # past the optimal truncation point
            break
        if term <= 1e-18 * s:
            break
        s += term if k % 2 == 0 else -term
        prev = term
    return s, term


def _k0_asymptotic(x):
    """Large-x expansion e^-x sqrt(pi/2x) sum (-1)^k m_k x^-k with the
    first omitted term as the remainder bound."""
    s, term = _k0_scaled_sum(x)
    pref = math.exp(-x) * math.sqrt(math.pi / (2.0 * x))
    value = pref * s
    return value, pref * term + 1e-15 * abs(value)


def k0(x):
    """Modified Bessel function K0(x) with a certified error bound.

    For x <= 8 the deep (M = 40) truncation of the ascending expansion is
    evaluated in extended precision and bracketed by its Stirling remainder;
    for x > 8 the standard large-x asymptotic expansion is used with the
    first omitted term as the remainder.  Returns a :class:`BoundedValue`.
    """
    if not x > 0.0:
        raise DomainError(f"k0 requires x > 0, got {x!r}")
    x = float(x)
    if x > K0_SERIES_MAX_X:
        value, bound = _k0_asymptotic(x)
        return BoundedValue(value, bound)
    lower_ld = _phi_partial(x, K0_DEEP_M)
    tail = _k0_tail(x, K0_DEEP_M)
    # Roundoff allowance: the sum cancels down from terms of size up to
    # I0(x) * (|ln(x/2)+g| + h_M); extended precision leaves ~1e-19 relative
    # per operation, and the final cast to double costs one double ulp.
    ell = abs(math.log(x / 2.0) + GAMMA)
    scale = bessel_i(0, x) * (ell + float(_HARM_LD[K0_DEEP_M]) + 1.0)
    slop = 2e-16 * scale + 4e-16 * abs(float(lower_ld))
    value = float(lower_ld + _LD(tail) / 2)
    return BoundedValue(value, tail / 2.0 + slop)


def k0_bounds(x, m):
    """Two-sided truncation bracket (lower, upper) for K0(x) at order m.

    The lower bound holds for every x > 0.  The upper bound holds for
    x < 2e^(h_m - gamma); beyond that the bracket is vacuous and upper is
    returned as +inf.  At m = 0 the upper bound is lower + C q |ln q| with
    q = x^2/4 and C = 0.974, on x < 2e^-gamma.

    Derivation of C: write L = -ln(x/2) - gamma >= 0 (the order-0 lower
    bound) and R0 = K0 - L.  From the ascending series,
    R0 / (q |ln q|) = sum_{n>=1} q^(n-1) (h_n + L) / ((n!)^2 2 (L + gamma)).
    Each term is nonincreasing in L because h_n >= 1 > gamma, so the sup over
    the range is the limit x -> 2e^-gamma (L -> 0), where it equals
    K0(2e^-gamma) e^(2 gamma) / (2 gamma) = 0.97311062304500...;
    C is that value rounded up.
    """
    if not x > 0.0:
        raise DomainError(f"k0_bounds requires x > 0, got {x!r}")
    if m != int(m) or m < 0:
        raise DomainError(f"k0_bounds needs a nonnegative integer order, got {m!r}")
    m = int(m)
    if m >= _NSER:
        raise DomainError(f"truncation order {m} beyond tabulated range {_NSER - 1}")
    x = float(x)
    lower = float(_phi_partial(x, m))
    if m == 0:
        if x < 2.0 * math.exp(-GAMMA):
            q = x * x / 4.0
            upper = lower + K0_M0_REMAINDER * q * abs(math.log(q))
        else:
            upper = math.inf
    else:
        tail = _k0_tail(x, m)
        upper = lower + tail if math.isfinite(tail) else math.inf
    return lower, upper
