"""Trap geometry: conformal radius, the segment's exterior conformal map,
its Green's function with pole at infinity, and harmonic measure.

The trap is an axis-aligned segment [a, b] x {0}; the disk it is compared
with enters only through its radius, in ``disk_oracle``.  A segment of
length L has conformal radius L/4; the normalized segment [-1, 1] has the
explicit exterior map

    phi(z) = z + sqrt(z^2 - 1),   |phi(z)| > 1 off the segment,

with inverse (w + 1/w)/2, from which the Green's function is
H(z) = ln|phi(z)| / pi.  Rotated segments are out of scope: callers rotate
coordinates instead (the sampler in ``segment_sim`` is coordinate-aligned).
"""

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from trapprob.errors import BoundaryError, DomainError, require_count
from trapprob.specfun import GAMMA

# Points closer to the segment than this are treated as on it: below this
# scale the square root in the map has no relative accuracy left.
BOUNDARY_TOL = 1e-12

_E_GAMMA = math.exp(GAMMA)


@dataclass(frozen=True)
class PlanePoint:
    """A point of the plane (Cartesian coordinates)."""

    x: float
    y: float

    def __post_init__(self):
        try:  # costs nothing when nothing is raised (Python 3.11 on)
            if math.isfinite(self.x) and math.isfinite(self.y):
                return
        except (TypeError, OverflowError):  # a string, a complex or an int past the double range
            pass
        raise DomainError(f"non-finite or non-real coordinates ({self.x!r}, {self.y!r})")


@dataclass(frozen=True)
class TrapGeometry:
    """A segment trap with its derived constants.

    Attributes
    ----------
    a, b : float
        Segment endpoints on the horizontal axis.
    r_T : float
        Conformal radius (b - a)/4.
    r0 : float
        max over the trap of |w|.
    d : float
        The paper's d = max(diam, e^gamma * r_T), diam the diameter of the
        trap; for a segment it is the length b - a, since e^gamma/4 < 1.
    tau0 : float
        (1/2) e^(2 gamma) r_T^2, the natural time scale of the trap.
    """

    a: float
    b: float
    r_T: float
    r0: float
    d: float
    tau0: float


def make_segment_trap(a, b):
    """Build the geometry record for the segment [a, b] x {0} (a < b)."""
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError, OverflowError):  # a string, a complex or an int past the double range
        raise DomainError(f"segment ends must be real numbers in the double range, got a={a!r}, b={b!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"segment ends must be finite, got a={a!r}, b={b!r}")
    if not a < b:
        raise DomainError(f"degenerate trap: need a < b, got a={a!r}, b={b!r}")
    r_t = (b - a) / 4.0
    d = b - a
    # times scale with the squared length, which must be a (normal) double
    if not sys.float_info.min <= d * d < math.inf:
        raise DomainError(f"segment length {d!r} is outside the double range once squared")
    return TrapGeometry(
        a=a,
        b=b,
        r_T=r_t,
        r0=max(abs(a), abs(b)),
        d=d,
        tau0=0.5 * math.exp(2.0 * GAMMA) * r_t * r_t,
    )


def _check_trap(trap):
    """DomainError unless ``trap`` is a segment trap record."""
    if not isinstance(trap, TrapGeometry):
        raise DomainError(f"trap must be a TrapGeometry from make_segment_trap, got {trap!r}")


def _check_point(z):
    """DomainError unless ``z`` is a PlanePoint."""
    if not isinstance(z, PlanePoint):
        raise DomainError(f"point must be a PlanePoint, got {z!r}")


def _segment_distance(z):
    """Distance from z to the normalized segment [-1, 1] x {0}."""
    if abs(z.x) <= 1.0:
        return abs(z.y)
    return math.hypot(abs(z.x) - 1.0, z.y)


def _phi_scaled(z, s):
    """phi(z)/s for s = 1 or 4, where dividing by s is exact.

    Each factor of the root is built from its parts: complex(z.x, z.y) + 1.0
    would turn an imaginary -0.0 into +0.0 and put the two factors on
    opposite sides of the cut.  sqrt(a/s) sqrt(b/s) = sqrt(a b)/s, so
    phi(z)/4, about z/2, stays in the double range for every finite z.
    """
    root = cmath.sqrt(complex((z.x - 1.0) / s, z.y / s)) * cmath.sqrt(complex((z.x + 1.0) / s, z.y / s))
    return complex(z.x / s, z.y / s) + root


def phi_segment(z):
    """Exterior conformal map z + sqrt(z^2 - 1) of the normalized segment.

    The branch is fixed by writing sqrt(z^2 - 1) = sqrt(z - 1) sqrt(z + 1)
    with principal square roots, which makes the product positive for
    z > 1 and negative for z < -1 and puts the cut exactly on the segment;
    |phi(z)| > 1 strictly off the segment.  BoundaryError within
    BOUNDARY_TOL = 1e-12 of the segment, DomainError where phi(z), about
    2z, passes the double range (|z| from about 9e307).  Beyond an endpoint
    |phi(z)| - 1 grows like sqrt(2 delta) in the distance delta, so the
    last points outside the tolerance there still have |phi(z)| near
    1 + 1.5e-6, not 1 (the jump green_segment documents).
    """
    _check_point(z)
    if _segment_distance(z) <= BOUNDARY_TOL:
        raise BoundaryError(f"point ({z.x}, {z.y}) lies on the segment trap")
    w = _phi_scaled(z, 1.0)
    if not cmath.isfinite(w):
        raise DomainError(f"phi({z.x}, {z.y}) lies outside the double range")
    return w


def green_segment(z):
    """Green's function with pole at infinity for the normalized segment.

    Returns ln|phi(z)|/pi, which is >= 0, vanishes as z approaches the
    segment, and grows like ln|z|/pi.  Points within BOUNDARY_TOL of the
    segment get exactly 0.  Beyond an endpoint H grows like sqrt(2 delta)/pi
    in the distance delta, so it jumps there: it is 0 at delta = 5e-13 and
    4.7e-7 at delta = 1.1e-12 (where sqrt(2 delta)/pi would give 3.2e-7 and
    4.7e-7).  Where |phi(z)| passes the double range, ln|phi| is
    ln 4 + ln|phi(z)/4|.
    """
    _check_point(z)
    if _segment_distance(z) <= BOUNDARY_TOL:
        return 0.0
    try:
        log_phi = math.log(abs(phi_segment(z)))
    except (DomainError, OverflowError):  # phi(z) or |phi(z)| past the double range
        log_phi = math.log(4.0) + math.log(abs(_phi_scaled(z, 4.0)))
    val = log_phi / math.pi
    return val if val > 0.0 else 0.0


def harmonic_measure_nodes(n):
    """Quadrature nodes/weights for harmonic measure at infinity on [-1, 1].

    Harmonic measure of the segment (the law of the first trap point hit by
    a Brownian motion from infinity) is the arcsine distribution - the
    pushforward of the uniform law on the unit circle under (w + 1/w)/2.
    Its Gauss-Chebyshev discretization is n equal-weight nodes

        x_k = cos((2k - 1) pi / (2n)),  w_k = 1/n.

    Returns (nodes, weights) as float arrays.
    """
    n = require_count(n, "node count")
    k = np.arange(1, n + 1)
    nodes = np.cos((2 * k - 1) * np.pi / (2.0 * n))
    return nodes, np.full(n, 1.0 / n)


def r_z(trap, z):
    """max(sup over the trap of |w - z|, e^gamma r_T).

    The supremum is attained at an endpoint of the segment.  DomainError
    where that distance passes the double range, ``trap`` is not a trap or
    ``z`` is not a PlanePoint.
    """
    _check_trap(trap)
    _check_point(z)
    far = max(math.hypot(z.x - trap.a, z.y), math.hypot(z.x - trap.b, z.y))
    if far == math.inf:
        raise DomainError(f"distance from ({z.x}, {z.y}) to the trap passes the double range")
    return max(far, _E_GAMMA * trap.r_T)
