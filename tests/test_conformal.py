"""Tests for trap geometry, the segment's exterior map, and harmonic measure."""

import cmath
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trapprob import (
    BoundaryError,
    DomainError,
    PlanePoint,
    green_segment,
    harmonic_measure_nodes,
    make_segment_trap,
    phi_segment,
    r_z,
)
from trapprob.specfun import GAMMA

E_GAMMA = math.exp(GAMMA)

# mpmath references (30 digits, truncated to float64)
GREEN_REF = {
    (2.0, 0.0): 0.4192007182789827,
    (1.0, 1.0): 0.3378143441646873,
    (0.0, 5.0): 0.7360719852175636,
    (5.0, 0.0): 0.7297036638221357,
    (-3.0, 0.5): 0.5662702616120443,
}


# ---------------------------------------------------------------------------
# geometry records
# ---------------------------------------------------------------------------

def test_unit_segment_constants():
    trap = make_segment_trap(-1.0, 1.0)
    assert trap.r_T == 0.25 * 2.0
    assert trap.r0 == 1.0
    assert trap.d == 2.0  # the length: diam beats e^gamma * r_T = 0.89
    assert_allclose(trap.tau0, 0.3965273697656813, rtol=1e-14)


def test_short_segment_d_floor():
    # for a short enough segment the e^gamma r_T floor is still below diam:
    # e^gamma/4 < 1 always, so d == diam for every segment.  Check the
    # competing scale explicitly instead of trusting the comparison.
    trap = make_segment_trap(0.0, 1.0)
    assert trap.r_T == 0.25
    assert trap.d == max(1.0, E_GAMMA * 0.25) == 1.0
    assert trap.r0 == 1.0


def test_offset_segment_fields():
    trap = make_segment_trap(2.0, 6.0)
    assert trap.r_T == 1.0
    assert trap.r0 == 6.0
    assert trap.d == 4.0
    assert_allclose(trap.tau0, 4.0 * 0.3965273697656813, rtol=1e-14)


def test_degenerate_traps_rejected():
    with pytest.raises(DomainError):
        make_segment_trap(1.0, 1.0)
    with pytest.raises(DomainError):
        make_segment_trap(2.0, -2.0)


@pytest.mark.parametrize(
    "a, b",
    [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (0.0, 1e-160), (-1e200, 1e200)],
)
def test_segment_outside_the_double_range_rejected(a, b):
    # the walk's times scale with the squared length, which must be a double
    with pytest.raises(DomainError):
        make_segment_trap(a, b)


def test_plane_point_basics():
    p = PlanePoint(3.0, -4.0)
    assert math.hypot(p.x, p.y) == 5.0
    with pytest.raises(DomainError):
        PlanePoint(math.inf, 0.0)
    with pytest.raises(DomainError):
        PlanePoint(0.0, math.nan)


# ---------------------------------------------------------------------------
# phi_segment
# ---------------------------------------------------------------------------

def test_phi_real_axis_values():
    assert_allclose(phi_segment(2.0, 0.0).real, 3.732050807568877, rtol=1e-15)
    assert abs(phi_segment(2.0, 0.0).imag) < 1e-15
    # left of the segment the map is large negative
    w = phi_segment(-2.0, 0.0)
    assert_allclose(w.real, -3.732050807568877, rtol=1e-15)


@pytest.mark.parametrize("x", [-65656626.0, -5.0, -1.5, 2.0, 7e8])
def test_phi_signed_zero_is_on_the_axis(x):
    # y = -0.0 is the real axis, on either side of the segment
    w = phi_segment(x, -0.0)
    assert w == phi_segment(x, 0.0) and abs(w) > 1.0
    assert green_segment(x, -0.0) == green_segment(x, 0.0) > 0.0


def test_phi_complex_value():
    w = phi_segment(1.0, 1.0)
    assert_allclose(w.real, 1.7861513777574233, rtol=1e-14)
    assert_allclose(w.imag, 2.2720196495140690, rtol=1e-14)


def test_phi_inverse_round_trip():
    pts = [(1.5, 0.7), (-2.0, 0.1), (0.0, 3.0), (-0.4, -1.2), (10.0, -4.0)]
    for x, y in pts:
        w = phi_segment(x, y)
        z_back = 0.5 * (w + 1.0 / w)
        assert_allclose([z_back.real, z_back.imag], [x, y], rtol=1e-12, atol=1e-13)


def test_phi_modulus_exceeds_one_off_segment():
    rng = np.random.default_rng(42)
    for _ in range(300):
        x = rng.uniform(-4, 4)
        y = rng.uniform(-4, 4)
        if math.hypot(max(abs(x) - 1.0, 0.0), y) <= 1e-9:
            continue
        assert abs(phi_segment(x, y)) > 1.0


def test_phi_asymptotically_doubles():
    # phi(z)/z -> 2 at infinity
    for radius, tol in ((1e3, 1e-5), (1e6, 1e-11)):
        for angle in (0.3, 1.2, 2.5, 4.0):
            z = complex(radius * math.cos(angle), radius * math.sin(angle))
            w = phi_segment(z.real, z.imag)
            assert abs(w / z - 2.0) < tol


def test_phi_boundary_error():
    # only the segment itself (y == 0 and |x| <= 1) is the boundary; a point
    # 1e-13 above an endpoint is off it and has |phi| just above 1
    for x in (0.3, 1.0, -1.0, -0.0):
        with pytest.raises(BoundaryError):
            phi_segment(x, 0.0)
    with pytest.raises(BoundaryError):
        phi_segment(0.3, -0.0)
    w = phi_segment(-1.0, 1e-13)
    assert 1.0 < abs(w) < 1.0 + 1e-6


# ---------------------------------------------------------------------------
# green_segment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("xy, want", sorted(GREEN_REF.items()))
def test_green_reference_values(xy, want):
    assert_allclose(green_segment(*xy), want, rtol=1e-12)


def test_green_zero_on_segment():
    for x in (-1.0, -0.5, 0.0, 0.9, 1.0):
        assert green_segment(x, 0.0) == 0.0
    # just off the segment H is y/(pi sqrt(1 - x^2)) to first order, 3.25e-14
    # here, within the 7e-17 absolute of ln|phi| near |phi| = 1
    assert_allclose(green_segment(0.2, 1e-13), 1e-13 / (math.pi * math.sqrt(0.96)), rtol=0, atol=1e-16)


def test_green_continuous_near_segment():
    # vanishes linearly in the distance at interior points ...
    vals = [green_segment(0.3, 10.0**-k) for k in range(3, 9)]
    assert all(v > 0.0 for v in vals)
    for a, b in zip(vals, vals[1:]):
        assert_allclose(a / b, 10.0, rtol=1e-5)
    # ... but only like sqrt(distance) beyond an endpoint
    vals = [green_segment(1.0 + 10.0**-k, 0.0) for k in range(3, 9)]
    for a, b in zip(vals, vals[1:]):
        assert_allclose(a / b, math.sqrt(10.0), rtol=1e-3)


def test_green_jumps_at_the_boundary_tolerance_beyond_an_endpoint():
    # no tolerance: beyond an endpoint H is sqrt(2 delta)/pi at every
    # distance delta, down to the last double past the endpoint, so it is
    # continuous there (a tolerance of 1e-12 once made it jump from 0 to
    # 4.7e-7)
    for sign in (1.0, -1.0):
        for delta in (1.1e-12, 5e-13, 1e-15, 2.0**-52):
            x = sign * (1.0 + delta)
            exact = (abs(x) - 1.0) * 2.0  # 2 delta for the double actually stored
            assert abs(phi_segment(x, 0.0)) > 1.0
            assert_allclose(green_segment(x, 0.0), math.sqrt(exact) / math.pi, rtol=1e-3)
        assert green_segment(sign, 0.0) == 0.0


def test_green_symmetries():
    # reflection through both axes leaves |phi| unchanged
    for x, y in ((1.3, 0.4), (0.2, 2.0), (3.0, -1.0)):
        g = green_segment(x, y)
        assert_allclose(green_segment(-x, y), g, rtol=1e-13)
        assert_allclose(green_segment(x, -y), g, rtol=1e-13)


def test_green_grows_logarithmically():
    # H(z) - ln(|z|/r_T)/pi -> 0, r_T = 1/2
    for radius, tol in ((1e3, 1e-7), (1e6, 1e-12)):
        g = green_segment(radius, 0.0)
        assert abs(g - math.log(radius / 0.5) / math.pi) < tol


# past about 9e307, phi(z) ~ 2z (or its modulus) leaves the double range
HUGE_POINTS = [
    (7e307, 7e307),
    (9e307, 0.0),
    (-9e307, -0.0),
    (1e308, 1e308),
    (-1.7e308, 1.7e308),
    (0.0, 1.79e308),
    (1.7976931348623157e308, -1.7976931348623157e308),
]


@pytest.mark.parametrize("x, y", HUGE_POINTS)
def test_green_at_the_edge_of_the_double_range_matches_mpmath(x, y):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z = mpmath.mpc(x, y)
        want = float(mpmath.log(abs(z + mpmath.sqrt(z - 1) * mpmath.sqrt(z + 1))) / mpmath.pi)
    assert_allclose(green_segment(x, y), want, rtol=4e-16)


def test_phi_outside_the_double_range_raises():
    with pytest.raises(DomainError, match="outside the double range"):
        phi_segment(9e307, 0.0)
    # just below, phi is a double and green_segment reads it as before
    assert abs(phi_segment(8e307, 0.0).real - 1.6e308) < 1e293
    assert green_segment(8e307, 0.0) == math.log(abs(phi_segment(8e307, 0.0))) / math.pi


def test_green_monotone_along_ray():
    radii = np.geomspace(1.5, 1e4, 50)
    vals = [green_segment(float(r), 0.0) for r in radii]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# harmonic_measure_nodes
# ---------------------------------------------------------------------------

def test_nodes_single():
    nodes, weights = harmonic_measure_nodes(1)
    assert_allclose(nodes, [0.0], atol=1e-15)
    assert_allclose(weights, [1.0], rtol=0)


def test_nodes_structure():
    nodes, weights = harmonic_measure_nodes(64)
    assert nodes.shape == weights.shape == (64,)
    assert np.all(np.abs(nodes) < 1.0)
    assert_allclose(weights.sum(), 1.0, rtol=1e-15)
    # nodes are symmetric about 0 and strictly decreasing
    assert_allclose(nodes, -nodes[::-1], atol=1e-15)
    assert np.all(np.diff(nodes) < 0.0)


def test_nodes_match_arcsine_moments():
    # arcsine moments: E[x^2] = 1/2, E[x^4] = 3/8; Gauss-Chebyshev is exact
    # for polynomial degree < 2n
    nodes, weights = harmonic_measure_nodes(8)
    assert_allclose(weights @ nodes**2, 0.5, rtol=1e-14)
    assert_allclose(weights @ nodes**4, 0.375, rtol=1e-14)
    assert abs(weights @ nodes) < 1e-15


def test_nodes_bad_count():
    with pytest.raises(DomainError):
        harmonic_measure_nodes(0)
    for n in (math.nan, math.inf):
        with pytest.raises(DomainError, match="node count"):
            harmonic_measure_nodes(n)
    with pytest.raises(DomainError):
        harmonic_measure_nodes(2.5)


def test_discrete_log_potential_closed_form():
    # The discrete potential sum_k w_k ln|x_k - w| equals
    # -ln2 + (ln2 + ln|T_n(w)|)/n exactly (prod (w - x_k) = T_n(w) 2^(1-n)),
    # so its deviation from ln(1/2) is O(1/n), not zero.
    for n in (16, 64, 256):
        nodes, weights = harmonic_measure_nodes(n)
        for w in (-1.0, -0.3, 0.0, 0.7, 1.0):
            lhs = float(weights @ np.log(np.abs(nodes - w)))
            t_n = math.cos(n * math.acos(max(-1.0, min(1.0, w))))
            if abs(t_n) < 1e-300:
                continue
            want = -math.log(2.0) + (math.log(2.0) + math.log(abs(t_n))) / n
            assert_allclose(lhs, want, rtol=0, atol=1e-11)


def test_discrete_log_potential_rate():
    # deviation from -ln2 at w = 1 is exactly ln2/n
    for n in (32, 128, 512):
        nodes, weights = harmonic_measure_nodes(n)
        dev = float(weights @ np.log(np.abs(nodes - 1.0))) + math.log(2.0)
        assert_allclose(dev, math.log(2.0) / n, rtol=1e-9)


def test_green_via_measure_quadrature():
    # off the segment, (1/pi)(sum w_k ln|z - x_k| + ln 2) converges to H(z)
    # exponentially fast in n
    nodes, weights = harmonic_measure_nodes(256)
    for (x, y), want in GREEN_REF.items():
        zdist = np.hypot(nodes - x, y)
        quad = (float(weights @ np.log(zdist)) + math.log(2.0)) / math.pi
        assert abs(quad - want) < 1e-12


# ---------------------------------------------------------------------------
# r_z
# ---------------------------------------------------------------------------

def test_r_z_segment():
    trap = make_segment_trap(-1.0, 1.0)
    assert r_z(trap, 5.0, 0.0) == 6.0
    assert r_z(trap, 2.0, 0.0) == 3.0
    assert_allclose(r_z(trap, 0.0, 1.0), math.sqrt(2.0), rtol=1e-15)


def test_r_z_floor():
    # a segment can never trigger the e^gamma r_T floor: its half-length
    # 2 r_T already exceeds e^gamma r_T
    trap = make_segment_trap(-1.0, 1.0)
    assert r_z(trap, 0.0, 0.01) > E_GAMMA * 0.5


def test_r_z_refuses_a_distance_past_the_double_range():
    trap = make_segment_trap(-1.0, 1.0)
    with pytest.raises(DomainError, match="passes the double range"):
        r_z(trap, 1.7e308, 1.7e308)
    # the farther end is about 1.41e308 away here, still a double
    assert math.isfinite(r_z(trap, 1e308, 1e308))


def test_scaling_covariance():
    # physics on segment (2, 6) is the unit-segment physics of (z - 4)/2:
    # conformal radius and tau0 scale as h and h^2, r_z as h
    unit = make_segment_trap(-1.0, 1.0)
    wide = make_segment_trap(2.0, 6.0)
    h, c = 2.0, 4.0
    assert wide.r_T == h * unit.r_T
    assert_allclose(wide.tau0, h * h * unit.tau0, rtol=1e-15)
    for x, y in ((9.0, 1.0), (5.0, -3.0)):
        assert_allclose(r_z(wide, x, y), h * r_z(unit, (x - c) / h, y / h), rtol=1e-15)
