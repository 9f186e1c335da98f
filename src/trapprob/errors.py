"""Exception hierarchy shared across the package, the one check that
every function taking a count applies to it, the test and the check that a
real argument is a finite real scalar, and the cast of real numbers to a
float array.

The CLI maps these onto distinct exit codes (see ``trapprob.cli``):
DomainError -> 1, HypothesisError -> 2, ConvergenceError -> 3.
"""

import math
import numbers
import reprlib
import sys

import numpy as np


class TrapProbError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TrapProbError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CapacityError(DomainError):
    """A count passes its check, but what it asks for does not fit in memory."""


class BoundaryError(DomainError):
    """A point lies on the trap."""


class HypothesisError(TrapProbError, RuntimeError):
    """A theorem's hypothesis is not satisfied by the requested parameters."""


class ConvergenceError(TrapProbError, RuntimeError):
    """An iterative scheme exhausted its budget before reaching tolerance."""


def require_count(n, what="count", minimum=1):
    """``n`` as an int; DomainError unless it is a finite integral value of
    at least ``minimum`` (so nan, inf and 2.5 are refused, not truncated)
    and at most the largest double (so 10**400 is refused here, not by an
    OverflowError where the count meets a float)."""
    try:
        count = int(n) if int(n) == n else None
    except (TypeError, ValueError, OverflowError):  # int() of nan, inf or a non-number
        count = None
    if count is None or count < minimum:
        raise DomainError(f"{what} must be an integer >= {minimum}, got {n!r}")
    if count > sys.float_info.max:
        raise DomainError(f"{what} must be at most {sys.float_info.max:.4g}, got an integer of {count.bit_length()} bits")
    return count


def is_finite_real(value):
    """Whether ``value`` is a real scalar in the double range and neither
    inf nor NaN: False, not an OverflowError, for an int past the double
    range, and no overflow warning for a numpy float16 or float32."""
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int past the double range
        return False


def require_finite(**args):
    """The keyword arguments as a list of floats; DomainError naming the
    first that is not a finite real scalar within the double range (a
    string, a list, an array, 10**400 or a numpy float32 inf is refused
    here, not by a TypeError or OverflowError where it meets arithmetic).
    A numpy float16 or float32 becomes the equal double."""
    for name, value in args.items():
        if not is_finite_real(value):
            raise DomainError(f"{name} must be finite and real, got {value!r}")
    return [float(value) for value in args.values()]


def real_array(x, message):
    """np.asarray(x) cast to float; DomainError(f"{message}, got ...")
    unless every entry is a real number in the double range.  So a digit
    string, bytes or a complex (which numpy's cast would parse, or strip of
    its imaginary part), a ragged sequence and an int past the double range
    are all refused here.  NaN and inf pass: the caller states its own
    range.  The message shows x through reprlib, so a long sequence gives
    a short message."""
    try:
        arr = np.asarray(x)
        if arr.dtype.kind in "biuf" or (arr.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in arr.flat)):
            return arr.astype(float, copy=False)
    except (ValueError, OverflowError):  # a ragged sequence, or an int past the double range
        pass
    raise DomainError(f"{message}, got {reprlib.repr(x)}")
