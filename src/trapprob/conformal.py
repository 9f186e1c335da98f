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
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from trapprob.errors import BoundaryError, DomainError, require_count, require_finite
from trapprob.specfun import GAMMA

_E_GAMMA = math.exp(GAMMA)


@dataclass(frozen=True)
class PlanePoint:
    """A start point of the sampler's walks (Cartesian coordinates)."""

    x: float
    y: float

    def __post_init__(self):
        try:  # costs nothing when nothing is raised (Python 3.11 on)
            if math.isfinite(self.x) and math.isfinite(self.y):
                return
        except (TypeError, ValueError, OverflowError):  # a string, a complex, a Decimal sNaN, an int past the range
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
        if not (isinstance(a, numbers.Real) and isinstance(b, numbers.Real)):  # float() would parse a digit string
            raise TypeError
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


def _phi_scaled(x, y, s):
    """phi(x + iy)/s for s = 1 or 4, where dividing by s is exact.

    Each factor of the root is built from its parts: complex(x, y) + 1.0
    would turn an imaginary -0.0 into +0.0 and put the two factors on
    opposite sides of the cut.  sqrt(a/s) sqrt(b/s) = sqrt(a b)/s, so
    phi(z)/4, about z/2, stays in the double range for every finite z.
    """
    root = cmath.sqrt(complex((x - 1.0) / s, y / s)) * cmath.sqrt(complex((x + 1.0) / s, y / s))
    return complex(x / s, y / s) + root


def phi_segment(x, y):
    """Exterior conformal map z + sqrt(z^2 - 1) of the normalized segment,
    at z = x + iy.

    The branch is fixed by writing sqrt(z^2 - 1) = sqrt(z - 1) sqrt(z + 1)
    with principal square roots, which makes the product positive for
    z > 1 and negative for z < -1 and puts the cut exactly on the segment;
    |phi(z)| > 1 strictly off the segment.  BoundaryError exactly on the
    segment (y == 0 and |x| <= 1) and nowhere else: the two roots keep
    their relative accuracy however close z comes, so a point 1e-300 off
    the segment still gets its map.  DomainError where phi(z), about 2z,
    passes the double range (|z| from about 9e307), and for a coordinate
    that is not a finite real scalar.
    """
    x, y = require_finite(x=x, y=y)
    if y == 0.0 and abs(x) <= 1.0:
        raise BoundaryError(f"point ({x}, {y}) lies on the segment trap")
    w = _phi_scaled(x, y, 1.0)
    if not cmath.isfinite(w):
        raise DomainError(f"phi({x}, {y}) lies outside the double range")
    return w


def green_segment(x, y):
    """Green's function with pole at infinity for the normalized segment,
    at z = x + iy (DomainError for a coordinate that is not a finite real
    scalar).

    Returns ln|phi(z)|/pi, which is >= 0, vanishes as z approaches the
    segment, and grows like ln|z|/pi.  Exactly on the segment (y == 0 and
    |x| <= 1) it is 0; everywhere else it is ln|phi(z)|/pi, continuous up
    to the segment: H grows like the distance delta inside the ends and
    like sqrt(2 delta)/pi beyond them.  Against mpmath at 60 digits, 3000
    random points at distances 1e-300 to 1e-6 from the segment are within
    7.5e-17 absolute.  Where |phi(z)| passes the double range, ln|phi| is
    ln 4 + ln|phi(z)/4|.
    """
    x, y = require_finite(x=x, y=y)
    try:
        log_phi = math.log(abs(phi_segment(x, y)))
    except BoundaryError:
        return 0.0
    except (DomainError, OverflowError):  # phi(z) or |phi(z)| past the double range
        log_phi = math.log(4.0) + math.log(abs(_phi_scaled(x, y, 4.0)))
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


def r_z(trap, x, y):
    """max(sup over the trap of |w - z|, e^gamma r_T), at z = x + iy.

    The supremum is attained at an endpoint of the segment.  DomainError
    where that distance passes the double range, ``trap`` is not a trap or
    a coordinate is not a finite real scalar.
    """
    _check_trap(trap)
    x, y = require_finite(x=x, y=y)
    far = max(math.hypot(x - trap.a, y), math.hypot(x - trap.b, y))
    if far == math.inf:
        raise DomainError(f"distance from ({x}, {y}) to the trap passes the double range")
    return max(far, _E_GAMMA * trap.r_T)
