"""Tests for the special-function kernels (harmonic numbers, I0/I2, J0/Y0, K0)."""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from numpy.testing import assert_allclose

from trapprob import (
    BoundedValue,
    DomainError,
    bessel_i,
    bessel_j0_y0,
    harmonic_number,
    k0,
    k0_bounds,
)
from trapprob.cli import _bessel_table
from trapprob.specfun import (
    _C_J0,
    _C_Y0,
    _GAMMA_LD,
    _JY_PIECES,
    _JY_WIDTH,
    _M_HANKEL,
    _NSER,
    GAMMA,
    JY_SERIES_MAX_X,
    _k0_scaled,
    _k0_values,
    _phi_partial,
)

# Reference values computed with mpmath at 40 significant digits and frozen here.
K0_REF = {
    1e-8: 18.536612259610778,
    0.01: 4.721244730161095,
    0.5: 0.9244190712276659,
    1.0: 0.4210244382407083,
    2.0: 0.11389387274953344,
    8.0: 1.4647070522281539e-04,
    10.0: 1.7780062316167652e-05,
    15.0: 9.819536482396434e-08,
}
J0_REF = {0.1: 0.9975015620660400, 1.0: 0.7651976865579666, 5.0: -0.17759677131433830}
Y0_REF = {0.1: -1.5342386513503668, 1.0: 0.08825696421567696, 5.0: -0.30851762524903376}

# Closed-form constants that the truncation-remainder bounds rely on.
I0_CONST_A = 0.7884923128779748  # I0(2e^-gamma) * e^2 / (4 pi)
I0_CONST_B = 0.4026717927444479  # (I0(2/sqrt(e)) + I2(2/sqrt(e))) / 4


# ---------------------------------------------------------------------------
# harmonic_number
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, want", [(0, 0.0), (1, 1.0), (2, 1.5), (4, 25.0 / 12.0)])
def test_harmonic_small(n, want):
    assert harmonic_number(n) == pytest.approx(want, rel=0, abs=1e-15)


def test_harmonic_large_matches_digamma():
    # h_n = psi(n+1) + gamma
    for n in (10, 47, 48, 100, 1000):
        assert_allclose(harmonic_number(n), sp.digamma(n + 1) + GAMMA, rtol=1e-14)


def test_harmonic_expansion_within_two_ulp_of_mpmath():
    # from n = 48 on, harmonic_number is the asymptotic expansion; a count
    # of 1e15 returns at once rather than summing 1e15 terms
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in [*range(48, 2001, 7), 2000, 10**4, 10**6, 10**9, 2**53 - 1, 10**15]:
            want = mpmath.harmonic(n)
            assert abs(harmonic_number(n) - want) <= 2.0 * math.ulp(float(want)), n


def test_harmonic_rejects_bad_input():
    with pytest.raises(DomainError):
        harmonic_number(-1)
    with pytest.raises(DomainError):
        harmonic_number(2.5)
    for n in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            harmonic_number(n)
    # past the double range: refused by the count check, not an OverflowError
    with pytest.raises(DomainError, match="harmonic_number's n must be at most"):
        harmonic_number(10**400)


# ---------------------------------------------------------------------------
# bessel_i
# ---------------------------------------------------------------------------

def test_bessel_i_at_zero():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(2, 0.0) == 0.0


@pytest.mark.parametrize("x", [1e-6, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
def test_bessel_i_against_scipy(x):
    assert_allclose(bessel_i(0, x), sp.iv(0, x), rtol=5e-15)
    assert_allclose(bessel_i(2, x), sp.iv(2, x), rtol=5e-14)


def test_bessel_i_constants():
    a = bessel_i(0, 2.0 * math.exp(-GAMMA)) * math.e**2 / (4.0 * math.pi)
    x = 2.0 / math.sqrt(math.e)
    b = (bessel_i(0, x) + bessel_i(2, x)) / 4.0
    assert_allclose(a, I0_CONST_A, rtol=1e-12)
    assert_allclose(b, I0_CONST_B, rtol=1e-12)


def test_bessel_i_domain_errors():
    with pytest.raises(DomainError):
        bessel_i(1, 1.0)
    with pytest.raises(DomainError):
        bessel_i(0, -0.5)
    with pytest.raises(DomainError):
        bessel_i(0, 50.0 + 1e-9)


def _bessel_i_per_order(order, x):
    """Reference: one ascending-series loop per order."""
    q = x * x / 4.0
    if order == 0:
        term, total, k = 1.0, 1.0, 0
        while True:
            k += 1
            term *= q / (k * k)
            total += term
            if term <= 1e-16 * total:
                return total
    term, total, k = q / 2.0, q / 2.0, 0
    if term == 0.0:
        return 0.0
    while True:
        k += 1
        term *= q / (k * (k + 2))
        total += term
        if term <= 1e-16 * total:
            return total


def test_bessel_i_one_loop_equals_per_order_loops():
    xs = np.concatenate([np.linspace(0.0, 50.0, 2001), np.geomspace(5e-324, 50.0, 2001), [-0.0, 2e-154, 3e-162]])
    for x in xs.tolist():
        for order in (0, 2):
            assert bessel_i(order, x).hex() == _bessel_i_per_order(order, x).hex(), (order, x)


def test_bessel_i_on_an_array_equals_the_scalar_calls():
    # each entry stops at its own term: 0 and the smallest subnormal stop at
    # the first, 50 runs longest; a 2-d array keeps its shape, and each
    # entry is what the scalar series loop gives
    xs = np.concatenate([
        [0.0, 5e-324, 1e-8, 50.0, np.nextafter(50.0, 0.0)], np.geomspace(1e-300, 50.0, 400), np.linspace(0.0, 50.0, 401),
    ])
    for order in (0, 2):
        values = bessel_i(order, xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        assert [repr(v) for v in values.tolist()] == [repr(bessel_i(order, x)) for x in xs.tolist()], order
        assert [repr(v) for v in values.tolist()] == [repr(_bessel_i_per_order(order, x)) for x in xs.tolist()], order
        assert np.array_equal(bessel_i(order, xs.reshape(2, -1)), values.reshape(2, -1))


def test_bessel_i_on_a_scalar_returns_a_python_float():
    for x in (0.0, 2.5, 7, np.float64(2.5), np.int64(7), np.float32(2.5), np.array(2.5), True):
        for order in (0, 2):
            value = bessel_i(order, x)
            assert type(value) is float
            assert value == _bessel_i_per_order(order, float(x)), (order, x)


@pytest.mark.parametrize("x", [10**400, -(10**400), [1.0, 10**400], Fraction(10**400), Fraction(-1, 3), 51, -math.inf])
def test_bessel_i_refuses_a_real_outside_its_range(x):
    # an int past the double range makes numpy raise OverflowError
    with pytest.raises(DomainError, match="bessel_i needs 0 <= x <= 50"):
        bessel_i(0, x)


def test_bessel_i_on_a_list_or_tuple_takes_the_array_path():
    xs = [0.0, 1.0, 2.5, 50.0]
    for order in (0, 2):
        want = bessel_i(order, np.array(xs))
        for seq in (xs, tuple(xs), [[1.0, 2.0], [3.0, 4.0]]):
            got = bessel_i(order, seq)
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, bessel_i(order, np.array(seq, dtype=float)))
        assert np.array_equal(bessel_i(order, xs), want)
    with pytest.raises(DomainError, match="got 60.0"):
        bessel_i(0, [1.0, 60.0])
    for bad in ("abc", ["abc"], [1j], None, [1.0, [2.0]]):
        with pytest.raises(DomainError):
            bessel_i(0, bad)


def test_bessel_i_on_an_empty_array():
    for order in (0, 2):
        values = bessel_i(order, np.array([]))
        assert isinstance(values, np.ndarray) and values.shape == (0,)


@pytest.mark.parametrize("xs, named", [([1.0, 60.0, 70.0], "60.0"), ([2.0, np.nan], "nan"), ([-0.5, 1.0], "-0.5")])
def test_bessel_i_array_domain_error_names_one_entry(xs, named):
    with pytest.raises(DomainError) as exc:
        bessel_i(0, np.array(xs))
    assert str(exc.value) == f"bessel_i needs 0 <= x <= 50, got {named}"


def test_bessel_i_positivity():
    xs = np.linspace(0.0, 50.0, 101)
    for x in xs:
        assert bessel_i(0, float(x)) >= 1.0
        assert bessel_i(2, float(x)) >= 0.0


def test_bessel_i_second_derivative_identity():
    # 2 I0'' = I0 + I2.  A central difference in float64 carries ~eps/h^2
    # rounding noise (~5e-8 relative at h = 1e-4), so the finite-difference
    # route is asserted at that honest floor, and the identity itself is
    # pinned tightly through scipy's independent evaluation.
    h = 1e-4
    for x in (0.3, 1.0, 2.7, 6.0):
        d2 = (bessel_i(0, x + h) - 2.0 * bessel_i(0, x) + bessel_i(0, x - h)) / h**2
        rhs = bessel_i(0, x) + bessel_i(2, x)
        assert abs(2.0 * d2 - rhs) < 5e-7 * max(1.0, rhs)
        assert_allclose(rhs, sp.iv(0, x) + sp.iv(2, x), rtol=1e-13)


# ---------------------------------------------------------------------------
# bessel_j0_y0
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", sorted(J0_REF))
def test_j0_y0_frozen_values(x):
    j, y = bessel_j0_y0(x)
    assert_allclose(j, J0_REF[x], rtol=0, atol=1e-13)
    assert_allclose(y, Y0_REF[x], rtol=0, atol=1e-13)


def test_j0_y0_against_scipy_series_range():
    xs = np.geomspace(1e-3, JY_SERIES_MAX_X, 400)
    j, y = bessel_j0_y0(xs)
    assert np.max(np.abs(j - sp.j0(xs))) < 1e-12
    assert np.max(np.abs(y - sp.y0(xs))) < 1e-12


def test_j0_y0_against_scipy_asymptotic_range():
    xs = np.geomspace(JY_SERIES_MAX_X * 1.001, 1e4, 500)
    j, y = bessel_j0_y0(xs)
    assert np.max(np.abs(j - sp.j0(xs))) < 1e-10
    assert np.max(np.abs(y - sp.y0(xs))) < 1e-10


def test_j0_first_root_by_bisection():
    lo, hi = 2.0, 3.0
    flo = bessel_j0_y0(lo)[0]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = bessel_j0_y0(mid)[0]
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    root = 0.5 * (lo + hi)
    assert_allclose(root, 2.404825557695773, rtol=0, atol=1e-12)
    assert abs(bessel_j0_y0(root)[0]) <= 1e-10


def test_y0_small_x_log_structure():
    x = 1e-4
    j, y = bessel_j0_y0(x)
    assert abs(y - (2.0 / math.pi) * (math.log(x / 2.0) + GAMMA) * j) < 1e-8


def test_j0_y0_never_vanish_together():
    xs = np.geomspace(1e-6, 1e4, 2000)
    j, y = bessel_j0_y0(xs)
    assert np.all(j * j + y * y > 0.0)


def test_j0_y0_domain_error():
    with pytest.raises(DomainError):
        bessel_j0_y0(0.0)
    with pytest.raises(DomainError):
        bessel_j0_y0(np.array([1.0, -2.0]))


@pytest.mark.parametrize("x", [math.inf, math.nan, np.array([2.0, math.inf]), np.array([math.nan, 2.0])])
def test_j0_y0_rejects_a_non_finite_argument(x):
    with pytest.raises(DomainError, match="requires finite x > 0"):
        bessel_j0_y0(x)


def test_j0_y0_near_the_top_of_the_double_range():
    # x^2 and pi x overflow here: both values read 0, within |J0|, |Y0| <= sqrt(2/(pi x))
    j, y = bessel_j0_y0(np.array([1e300, sys.float_info.max]))
    assert np.all(np.abs(j) <= 1e-150) and np.all(np.abs(y) <= 1e-150)


def test_j0_y0_scalar_round_trip():
    j, y = bessel_j0_y0(1.0)
    assert isinstance(j, float) and isinstance(y, float)


def _j0_y0_full_series(x):
    """Reference: every one of the 48 series terms for every argument."""
    ld = np.longdouble
    xs = np.asarray(x, dtype=float).astype(ld)
    t = xs * xs / 4
    js = np.zeros_like(t)
    ps = np.zeros_like(t)
    for n in range(_NSER - 1, -1, -1):
        js = js * t + _C_J0[n]
        ps = ps * t + _C_Y0[n]
    ell = np.log(xs / 2) + _GAMMA_LD
    return js.astype(float), ((2 / ld(np.pi)) * (ell * js + ps)).astype(float)


# the first five zeros of J0 and of Y0
J0_ZEROS = [2.4048255576957724, 5.520078110286311, 8.653727912911013, 11.791534439014281, 14.930917708487787]
Y0_ZEROS = [0.8935769662791675, 3.957678419314858, 7.086051060301773, 10.222345043496416, 13.361097473872764]


def test_j0_y0_table_against_the_full_series():
    # the double table against the extended-precision series it is built
    # from, on the series range, every piece edge and the doubles either
    # side, and 4001 points packed within a relative 2e-9 of each zero
    edges = np.arange(1, _JY_PIECES + 1) * _JY_WIDTH
    xs = np.concatenate([
        np.geomspace(1e-30, JY_SERIES_MAX_X, 200_001),
        np.nextafter(edges, 0.0), edges, np.nextafter(edges[:-1], np.inf),
        (np.asarray(J0_ZEROS + Y0_ZEROS)[:, None] * (1.0 + 1e-12 * np.arange(-2000, 2001))).ravel(),
    ])
    j, y = bessel_j0_y0(xs)
    j_ref, y_ref = _j0_y0_full_series(xs)
    assert np.max(np.abs(j - j_ref)) <= 1.5e-14
    assert np.max(np.abs(y - y_ref) / np.maximum(1.0, np.abs(y_ref))) <= 3e-14


def test_j0_y0_against_mpmath_on_the_series_range():
    # about 2000 points on [1e-12, 15], 1e-9 neighbourhoods of the zeros
    # included
    mpmath = pytest.importorskip("mpmath")
    zeros = np.asarray(J0_ZEROS + Y0_ZEROS)
    xs = np.concatenate([
        np.geomspace(1e-12, JY_SERIES_MAX_X, 1500),
        (zeros[:, None] + np.linspace(-1e-9, 1e-9, 50)).ravel(),
    ])
    j, y = bessel_j0_y0(xs)
    with mpmath.workdps(30):
        for x, jv, yv in zip(xs.tolist(), j.tolist(), y.tolist()):
            j_ref, y_ref = float(mpmath.besselj(0, x)), float(mpmath.bessely(0, x))
            assert abs(jv - j_ref) <= 1e-14, x
            assert abs(yv - y_ref) <= 3e-14 * max(1.0, abs(y_ref)), x


def test_j0_is_exactly_one_below_1e_minus_8():
    xs = np.concatenate([np.geomspace(5e-324, 1e-8, 2001), [np.nextafter(1e-8, 0.0)]])
    j, y = bessel_j0_y0(xs)
    assert np.all(j == 1.0)
    assert np.all(np.isfinite(y))


def _hankel_reference(xb):
    """Reference: the 17 P and 16 Q terms of the Hankel expansion summed
    directly in powers of 1/x^2, two separate Horner loops."""
    with np.errstate(over="ignore"):
        xi2 = 1.0 / (xb * xb)
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
        return amp * (p * cw - q * sw), amp * (p * sw + q * cw)


def test_j0_y0_hankel_piece_against_the_direct_expansion():
    # the table's piece for x > 15 holds P and x|Q| as degree-8 polynomials
    # in (15/x)^2; against the expansion summed term by term it reads
    # 5.6e-17 at worst
    xs = np.append(np.geomspace(np.nextafter(JY_SERIES_MAX_X, np.inf), 1e300, 20001), sys.float_info.max)
    j, y = bessel_j0_y0(xs)
    j_ref, y_ref = _hankel_reference(xs)
    assert np.max(np.abs(j - j_ref)) <= 2e-16
    assert np.max(np.abs(y - y_ref)) <= 2e-16


def test_j0_y0_against_mpmath_on_the_hankel_range():
    # 300 log-spaced points of (15, 1e4]; the worst reads 4.5e-15
    mpmath = pytest.importorskip("mpmath")
    xs = np.geomspace(JY_SERIES_MAX_X, 1e4, 301)[1:]
    j, y = bessel_j0_y0(xs)
    with mpmath.workdps(30):
        for x, jv, yv in zip(xs.tolist(), j.tolist(), y.tolist()):
            assert abs(jv - float(mpmath.besselj(0, x))) <= 1e-14, x
            assert abs(yv - float(mpmath.bessely(0, x))) <= 1e-14, x


def test_j0_y0_entries_depend_on_their_own_argument_only():
    # one array across every branch of the kernel (the series pieces, the
    # interpolated pieces, both sides of 15, and where x^2 and pi x
    # overflow) against one-element calls, bit for bit
    xs = np.array([5e-324, 1e-8, 0.9375, 15.0, np.nextafter(15.0, np.inf), 1e154, 1e300, sys.float_info.max])
    for order in (xs, xs[::-1]):
        j, y = bessel_j0_y0(order)
        for x, jv, yv in zip(order.tolist(), j.tolist(), y.tolist()):
            j1, y1 = bessel_j0_y0(np.array([x]))
            assert (jv.hex(), yv.hex()) == (float(j1[0]).hex(), float(y1[0]).hex()), x
            assert (jv.hex(), yv.hex()) == tuple(v.hex() for v in bessel_j0_y0(x)), x


# 2401 arguments across every branch of the kernel: the series pieces, every
# edge of the interpolated pieces (multiples of 15/64), 15 and the doubles
# either side of it, and the Hankel piece up to the largest double
JY_MIX = np.concatenate(
    [
        np.geomspace(5e-324, 0.9375, 400),
        np.linspace(0.9375, JY_SERIES_MAX_X, 1201),
        np.geomspace(np.nextafter(JY_SERIES_MAX_X, np.inf), 1e4, 600),
        np.geomspace(1e4, 1e308, 194),
        [1e-8, np.nextafter(JY_SERIES_MAX_X, 0.0), JY_SERIES_MAX_X, np.nextafter(JY_SERIES_MAX_X, np.inf)],
        [1e154, sys.float_info.max],
    ]
)
# SHA-256 of the float.hex of J0 then Y0 on JY_MIX, one value a line;
# recorded before the arguments past 15 came to be gathered by index
JY_MIX_SHA256 = "af7f3ad28ec78bbaf5fd5cc8cacf5151ec25c7de44ffd86c0a2d8b2bcc089c89"


def test_j0_y0_shuffled_array_equals_one_element_calls():
    xs = np.random.default_rng(20).permutation(JY_MIX)
    j, y = bessel_j0_y0(xs)
    for x, jv, yv in zip(xs.tolist(), j.tolist(), y.tolist()):
        j1, y1 = bessel_j0_y0(np.array([x]))
        assert (jv.hex(), yv.hex()) == (float(j1[0]).hex(), float(y1[0]).hex()), x


def test_j0_y0_digest():
    j, y = bessel_j0_y0(JY_MIX)
    text = "\n".join(v.hex() for v in j.tolist() + y.tolist())
    assert hashlib.sha256(text.encode()).hexdigest() == JY_MIX_SHA256


# ---------------------------------------------------------------------------
# k0
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x, want", sorted(K0_REF.items()))
def test_k0_frozen_values(x, want):
    bv = k0(x)
    assert isinstance(bv, BoundedValue)
    # the frozen reference must sit inside the certified interval, and the
    # point value itself should agree to the 1e-14 relative target
    assert bv.lower <= want <= bv.upper
    assert_allclose(bv.value, want, rtol=1e-14)


def test_k0_series_branch_is_tight():
    # the whole range, the order-1 bracket below 1e-8 and the underflow
    # region included
    for x in np.concatenate([np.geomspace(1e-300, 800.0, 400), [8.0, 8.01, 9.64]]):
        bv = k0(float(x))
        assert bv.abs_error_bound <= 1e-12 * max(1.0, abs(bv.value))


def test_k0_bound_honest_against_scipy():
    # scipy's k0 is good to a few ulp; allow it that much headroom
    for x in np.geomspace(1e-6, 100.0, 300):
        bv = k0(float(x))
        ref = sp.k0(x)
        assert abs(bv.value - ref) <= bv.abs_error_bound + 4e-16 * max(1.0, ref)


def test_k0_tiny_x_leading_term():
    x = 1e-8
    bv = k0(x)
    assert abs(bv.value - (-math.log(x / 2.0) - GAMMA)) < 1e-8


def test_k0_positive_and_decreasing():
    xs = np.geomspace(1e-6, 50.0, 200)
    vals = [k0(float(x)).value for x in xs]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_k0_domain_error():
    for x in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            k0(x)


@pytest.mark.parametrize("x", [[1.0, 2.0], [1.0], (1.0,), np.array([1.0, 2.0]), np.array([1.0]), np.array(1.0),
                               "1.0", None, 1j])
def test_k0_and_k0_bounds_refuse_anything_but_a_real_scalar(x):
    with pytest.raises(DomainError, match="real scalar"):
        k0(x)
    with pytest.raises(DomainError, match="real scalar"):
        k0_bounds(x, 1)


def test_k0_and_k0_bounds_take_any_real_scalar():
    # ints and numpy scalars are real scalars too
    for x in (2, np.float64(2.0), np.float32(2.0), np.int64(2)):
        assert k0(x) == k0(2.0)
        assert k0_bounds(x, 3) == k0_bounds(2.0, 3)


def test_k0_across_the_old_crossover():
    # The former large-x asymptotic branch (x > 8) was off by 1.1e-8
    # relative at x = 8.01 and missed the 1e-14 max(1, |K0|) target on
    # 8 < x < 9.64.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for x in (7.9, 8.01, 8.5, 10.0):
            ref = mpmath.besselk(0, x)
            assert abs(k0(x).value - ref) <= 1e-14 * ref, x
        for x in np.linspace(8.0, 9.64, 83).tolist():
            ref = mpmath.besselk(0, x)
            assert abs(k0(x).value - ref) <= 1e-14 * max(1.0, ref), x


def test_k0_kernel_against_mpmath():
    # e^x K0(x) from the trapezoidal kernel, and k0 itself where e^-x is a
    # normal double, on 600 log-spaced points; each certified interval
    # contains the reference
    mpmath = pytest.importorskip("mpmath")
    xs = np.geomspace(1e-8, 1e3, 600)
    s, err = _k0_scaled(xs)
    with mpmath.workdps(30):
        for x, sv, ev in zip(xs.tolist(), s.tolist(), err.tolist()):
            ref = mpmath.besselk(0, x)
            scaled = mpmath.exp(x) * ref
            assert abs(sv - scaled) <= 1e-15 * scaled, x
            assert abs(sv - scaled) <= ev, x
            if x < 700.0:
                bv = k0(x)
                assert abs(bv.value - ref) <= 1e-15 * ref, x
                assert bv.lower <= ref <= bv.upper, x


def test_k0_strip_term_within_its_share_of_the_bound():
    # _k0_scaled's bound gives the trapezoid's strip error 6 u S; evaluate
    # the strip bound it is derived from, 2 e^(x a^2/2) B(x cos a)/(e^c - 1)
    # with a = min(1.55, 8 pi/sqrt(x)), c = 2 pi a/h and
    # B(y) = min(sqrt(pi/(2y)), ln(2/y) + E1(1) e^y), on a dense grid
    xs = np.geomspace(1e-8, 1e8, 40001)
    h = 0.25 / np.sqrt(np.maximum(xs, 1.0))
    a = np.minimum(1.55, 2.0 * np.pi / (h * xs))
    c = 2.0 * np.pi * a / h
    y = xs * np.cos(a)
    ym = np.minimum(y, 2.0)  # the log form is derived for y < 2 only
    b = np.minimum(np.sqrt(0.5 * np.pi / y), np.log(2.0 / ym) + 0.2194 * np.exp(ym))
    strip = 2.0 * b * np.exp(0.5 * xs * a * a - c) / -np.expm1(-c)
    s, _ = _k0_scaled(xs)
    assert np.all(strip <= 6 * 2.0**-53 * s)


def test_k0_interval_contains_mpmath_at_the_ends():
    # below 1e-8 (order-1 bracket, down to the smallest subnormal) and where
    # e^-x underflows (value 0, finite positive bound)
    mpmath = pytest.importorskip("mpmath")
    tiny = np.geomspace(1e-300, 1e-8, 60).tolist() + [5e-324, 2.2250738585072014e-308, 9.99e-9]
    huge = [708.5, 740.0, 745.2, 746.0, 800.0, 1e4, 1e300, 1.7976931348623157e308]
    with mpmath.workdps(30):
        for x in tiny + huge:
            bv = k0(x)
            ref = mpmath.besselk(0, x)
            assert bv.lower <= ref <= bv.upper, x
            assert math.isfinite(bv.abs_error_bound) and bv.abs_error_bound > 0.0
        for x in huge[2:]:
            assert k0(x).value == 0.0


@pytest.mark.parametrize("lo, hi, points", [(1e-8, 50.0, 1000), (1e-4, 10.0, 50), (1e-300, 1e-6, 300)])
def test_k0_scalar_equals_table_entry(lo, hi, points):
    # the benchmark's and the CLI default's bessel grids, and one reaching
    # below 1e-8, where both take the order-1 bracket in one array call:
    # scalar k0 and the table's k0/k0_err columns agree bit for bit, so no
    # entry depends on the block it was computed in
    xs = np.logspace(math.log10(lo), math.log10(hi), points)
    table = _bessel_table(xs, 0)
    values, bounds = _k0_values(xs)
    for x, k0_cell, err_cell, value, bound in zip(xs.tolist(), table["k0"], table["k0_err"], values.tolist(),
                                                   bounds.tolist()):
        bv = k0(x)
        assert (bv.value, bv.abs_error_bound) == (value, bound) == (k0_cell, err_cell), x


def test_bessel_table_brackets_match_per_call_bounds():
    # the table's one prefix pass per x against k0_bounds(x, m) and
    # bessel_i(0, x) called one by one, by repr; the grid hits every edge
    # of the upper bounds' ranges, 2e^-gamma and 2e^(h_m - gamma), and the
    # doubles either side
    edges = [2.0 * math.exp(-GAMMA)] + [2.0 * math.exp(harmonic_number(m) - GAMMA) for m in range(1, 9)]
    xs = np.concatenate([
        np.geomspace(1e-8, 50.0, 300), edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
    ])
    table = _bessel_table(np.sort(xs), 8)
    for row in zip(*table.values()):  # x, k0, k0_err, i0, lower_0, upper_0, ..., upper_8
        x = row[0]
        assert repr(row[3]) == repr(bessel_i(0, x))
        for m in range(9):
            assert [repr(v) for v in row[4 + 2 * m: 6 + 2 * m]] == [repr(v) for v in k0_bounds(x, m)], (x, m)


def test_phi_partial_on_an_array_equals_the_scalar_calls():
    # the bessel table's one prefix pass over its grid against one pass per
    # x; the sums leave the double range at 2.5e5 (m = 40) and 1e300 (from
    # m = 1), and the extended sum itself runs to -inf at 1e300 (from m = 9)
    xs = np.concatenate([np.geomspace(1e-8, 50.0, 1000), [5e-324, 1e-8, 50.0, 2.5e5, 1e300]])
    sums = _phi_partial(xs, 40)
    assert sums.shape == (41, xs.size)
    for x, column in zip(xs.tolist(), sums.T):
        assert [repr(v) for v in column] == [repr(v) for v in _phi_partial(x, 40)], x
    assert float(sums[40, -2]) == float(sums[1, -1]) == -math.inf and np.all(np.isneginf(sums[9:, -1]))


# ---------------------------------------------------------------------------
# k0_bounds
# ---------------------------------------------------------------------------

def test_k0_bounds_vanishing_point():
    x = 2.0 * math.exp(-GAMMA)
    lower, _ = k0_bounds(x, 0)
    assert abs(lower) < 5e-16


def test_k0_bounds_m0_closed_form():
    lower, upper = k0_bounds(0.5, 0)
    assert_allclose(lower, 0.8090786962183578, rtol=1e-14)
    assert_allclose(upper, 0.9778600346847044, rtol=1e-14)
    # and the pinned remainder shape
    q = 0.25 / 4.0
    assert_allclose(upper - lower, 0.974 * q * abs(math.log(q)), rtol=1e-13)


@pytest.mark.parametrize("m", range(1, 6))
def test_k0_bounds_sandwich_x1(m):
    lower, upper = k0_bounds(1.0, m)
    assert lower <= K0_REF[1.0] <= upper


def test_k0_bounds_m0_upper_defect_zone():
    # An earlier M = 0 remainder, 0.79*(x^2/4)*|ln(x^2/4)|, fell below the
    # true truncation tail on roughly (0.8395, 1.1229), where the ratio
    # tail / (q |ln q|) climbs to its sup K0(2e^-gamma) e^(2 gamma)/(2 gamma)
    # = 0.97311...  Pin that the bracket now contains K0 there, both at
    # x = 1 and just below the top of the range 2e^-gamma.
    lower, upper = k0_bounds(1.0, 0)
    assert lower <= K0_REF[1.0] <= upper
    x_top = 2.0 * math.exp(-GAMMA) * (1.0 - 1e-9)
    lower, upper = k0_bounds(x_top, 0)
    ref = sp.k0(x_top)
    assert lower <= ref <= upper
    lower, upper = k0_bounds(0.5, 0)
    assert lower <= K0_REF[0.5] <= upper


def test_k0_bounds_sentinels():
    # M = 0 upper bound only exists below 2e^-gamma
    assert k0_bounds(1.2, 0)[1] == math.inf
    # M >= 1: valid until 2e^{h_M - gamma}
    for m in (1, 3, 8):
        edge = 2.0 * math.exp(harmonic_number(m) - GAMMA)
        assert k0_bounds(edge * 0.999, m)[1] < math.inf
        assert k0_bounds(edge, m)[1] == math.inf


def test_k0_bounds_bracket_true_value():
    # every bracket, M = 0 included, is valid on its full stated range
    for m in range(9):
        hi = 2.0 * math.exp(harmonic_number(m) - GAMMA) * 0.999999
        for x in np.geomspace(1e-6, hi, 60):
            lower, upper = k0_bounds(float(x), m)
            # scipy is the yardstick here and is itself only good to a few
            # ulp (measured ~5 ulp at x = 1e-6), hence the 2e-15 headroom
            ref = sp.k0(x)
            assert lower <= ref + 2e-15 * max(1.0, ref)
            assert ref <= upper + 2e-15 * max(1.0, ref)


def test_k0_bounds_monotone_tightening():
    xs = np.geomspace(1e-4, 2.0 * math.exp(-GAMMA) * 0.999, 40)
    for x in xs:
        widths = []
        for m in range(9):
            lower, upper = k0_bounds(float(x), m)
            widths.append(upper - lower)
        for a, b in zip(widths, widths[1:]):
            assert b <= a * (1.0 + 1e-12)


def test_k0_bounds_lower_le_upper_everywhere():
    for m in range(9):
        for x in np.geomspace(1e-8, 40.0, 80):
            lower, upper = k0_bounds(float(x), m)
            assert lower <= upper


def test_k0_bounds_domain_error():
    for x, m in ((0.0, 0), (1.0, -1), (math.nan, 1), (math.inf, 1), (1.0, math.nan), (1.0, 2.5), (1.0, _NSER)):
        with pytest.raises(DomainError):
            k0_bounds(x, m)


def test_k0_bounds_subnormal_x():
    # x^2/4 and x/(2(m+1)) underflow here; both remainders vanish and the
    # bracket still holds K0
    mpmath = pytest.importorskip("mpmath")
    for x in (5e-324, 1e-320, 1e-200):
        ref = mpmath.besselk(0, x)
        for m in (0, 1, 5):
            lower, upper = k0_bounds(x, m)
            assert math.isfinite(upper)
            assert abs(lower - ref) <= 4e-16 * ref and abs(upper - ref) <= 4e-16 * ref


# ---------------------------------------------------------------------------
# BoundedValue
# ---------------------------------------------------------------------------

def test_bounded_value_interval():
    bv = BoundedValue(1.0, 0.25)
    assert bv.lower == 0.75 and bv.upper == 1.25


def test_bounded_value_validation():
    with pytest.raises(DomainError):
        BoundedValue(1.0, -1e-3)
    with pytest.raises(DomainError):
        BoundedValue(1.0, math.nan)
