"""Exception taxonomy shared by every module.

Two top-level families matter for callers (and fix the CLI exit codes):
``InputError`` for anything wrong with the data handed to us, and
``NumericError`` for computations that ran but could not certify their
result.  Everything else subclasses one of those two.

The module also holds :func:`as_int`, :func:`as_rational` and
:func:`as_finite`, the one policy each for reading an integer, an exact
rational and a finite float from caller data, so that every module
rejects the same inputs without importing another solver (or numpy) to
do it.  :func:`read_rational` adds ``"p/q"`` strings to
:func:`as_rational`; the CLI and the library's exact fields (consum's
weights and areas, t2cone's basis entries) read through it.
"""
from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction

#: a float is read as the nearest fraction with at most this denominator
RATIONAL_MAX_DENOMINATOR = 10**12


class SLConesError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SLConesError, ValueError):
    """Invalid or inconsistent input data (CLI exit code 2)."""


class NumericError(SLConesError, RuntimeError):
    """A numerical routine failed to converge or to certify its error
    bound (CLI exit code 3).

    Attributes
    ----------
    achieved : float or None
        The best error bound / residual actually reached, when known.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class IncompleteSpectrumError(InputError):
    """The enumerated spectrum's cutoff cannot certify the requested
    exponent count; re-enumerate with a larger cutoff."""


class InconsistentProfileError(InputError):
    """A topology profile violates an exact-sequence constraint (some
    dimension formula went negative)."""


class InfeasibleGraphError(InputError):
    """The intersection graph admits no positive balanced solution."""


class PreconditionError(InputError):
    """A documented precondition of an operation does not hold."""


class DegeneratePhaseError(InputError):
    """Phase vectors cancel exactly; the combined phase is undefined."""


class WallError(InputError):
    """The requested rate lies in the exceptional exponent set where the
    moduli dimension is undefined."""


def as_int(x, what: str) -> int:
    """Exact integer from an int or an integral finite float; bools,
    strings and every other type are rejected with :class:`InputError`."""
    if type(x) is int:  # the common case, kept cheap; type() lets no bool through
        return x
    if isinstance(x, float) and math.isfinite(x) and x.is_integer():
        return int(x)
    if not isinstance(x, (bool, float)):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise InputError(f"{what} must be an integer, got {x!r}")


def as_rational(x, what: str) -> Fraction:
    """Exact rational from a real number.

    Ints and Fractions (any :class:`numbers.Rational`) stay exact.  A
    finite float becomes the nearest fraction whose denominator is at most
    :data:`RATIONAL_MAX_DENOMINATOR`, so 0.1 reads as 1/10 rather than as
    the float's binary value; an integral float reads as that integer.
    Bools, NaN, infinities, strings and every other type are rejected
    with :class:`InputError`.
    """
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, bool):
        if isinstance(x, numbers.Rational):
            return Fraction(x)
        if isinstance(x, numbers.Real):
            v = float(x)
            if math.isfinite(v):
                return Fraction(v).limit_denominator(RATIONAL_MAX_DENOMINATOR)
    raise InputError(f"{what} must be a finite rational or real number, got {x!r}")


def read_rational(x, what: str) -> Fraction:
    """Exact rational from a ``"p/q"`` (or decimal) string, read by
    :class:`~fractions.Fraction`, or from a number read by
    :func:`as_rational`."""
    if isinstance(x, Fraction):  # the common case, kept cheap
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what} is not a valid rational: {x!r} ({exc})") from None
    return as_rational(x, what)


def as_finite(x, what: str) -> float:
    """Finite float from a real number.

    Bools, strings, NaN, infinities, ints and rationals beyond the float
    range, and every other type are rejected with :class:`InputError`.
    """
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            v = float(x)
        except OverflowError:  # an int or a rational beyond the float range
            v = math.inf
        if math.isfinite(v):
            return v
    raise InputError(f"{what} must be a finite real number, got {x!r}")
