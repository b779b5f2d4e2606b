"""Exception taxonomy shared by every module.

Two top-level families matter for callers (and fix the CLI exit codes):
``InputError`` for anything wrong with the data handed to us, and
``NumericError`` for computations that ran but could not certify their
result.  Everything else subclasses one of those two.

The module also holds the one policy for reading caller data, which
every module uses without importing another solver (or numpy): an
integer by :func:`as_int` (``least`` adds a lower bound), an exact
rational by :func:`as_rational` (:func:`read_rational` adds ``"p/q"``
strings), a finite float by :func:`as_finite`, a positive one by
:func:`as_positive`, and a sequence argument by :func:`as_tuple`.  Each
raises :class:`InputError` naming the argument, and none coerces a bool,
a string or a non-finite value into a number.  Every message that echoes
a caller's value passes it through :func:`shown`, so an integer too long
to print still gives a message.  A record that checks its fields in
``__new__`` has its constructor's parameters as fields, a property for
any value computed from them, and :func:`checked_replace` as ``_replace``.
"""
from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Mapping
from fractions import Fraction

#: a float is read as the nearest fraction with at most this denominator
RATIONAL_MAX_DENOMINATOR = 10**12


class _Shown(str):
    """A stand-in for an over-long number in a message, printed without
    quotes by ``str``, ``repr`` and the repr of a container."""

    __repr__ = str.__str__


def _digits(n: int) -> int:
    """Decimal digits of |n|: 2^(b-1) <= |n| < 2^b leaves two candidates."""
    n = abs(n)
    d = int((n.bit_length() - 1) * 0.3010299956639812) + 1
    return d + (n >= 10**d)


def shown(x):
    """``x`` as an error message should echo it: an int or a Fraction
    with more than 50 digits is replaced by its digit count, also inside
    a list, a tuple or a dict's values; anything else comes back as it
    is, so a message formats it as before.  Call it on error paths only."""
    if type(x) in (tuple, list):
        return type(x)(map(shown, x))
    if type(x) is dict:
        return {k: shown(v) for k, v in x.items()}
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        a, b = _digits(x.numerator), _digits(x.denominator)
        if max(a, b) > 50:
            sign = "-" if x < 0 else ""
            return _Shown(f"<{sign}int of {a} digits>" if x.denominator == 1
                          else f"<{sign}fraction of {a}/{b} digits>")
    return x


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
        The best error bound / residual actually reached, when known; a
        non-finite value is stored as None, since it bounds nothing.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved if achieved is None or math.isfinite(achieved) else None


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


def as_int(x, what: str, least: int | None = None) -> int:
    """Exact integer from an int or an integral finite float; bools,
    strings and every other type are rejected with :class:`InputError`,
    and so is a value below ``least`` when that bound is given."""
    if type(x) is int:  # the common case, kept cheap; type() lets no bool through
        if least is None or x >= least:
            return x
        v = x
    elif isinstance(x, float) and math.isfinite(x) and x.is_integer():
        v = int(x)
    elif isinstance(x, (bool, float)) or not hasattr(type(x), "__index__"):
        raise InputError(f"{what} must be an integer, got {shown(x)!r}")
    else:
        v = operator.index(x)
    if least is not None and v < least:
        raise InputError(f"{what} must be >= {least}, got {shown(v)}")
    return v


def as_rational(x, what: str) -> Fraction:
    """Exact rational from a real number.

    Ints and Fractions (any :class:`numbers.Rational`) stay exact.  A
    finite float becomes the nearest fraction whose denominator is at most
    :data:`RATIONAL_MAX_DENOMINATOR` to the float's *binary* value, so 0.1
    reads as 1/10 rather than as 3602879701896397/36028797018963968, and
    an integral float reads as that integer.  A decimal with three or more
    places need not read as itself: the float 3.3219 reads as
    2258530744634/679891250379, which is nearer its binary value than
    33219/10000 is; :func:`read_rational` of the string ``"3.3219"``
    gives the exact decimal.  Bools, NaN, infinities, strings and every
    other type are rejected with :class:`InputError`.
    """
    if type(x) is int:  # the common cases first, kept cheap; type() lets no bool through
        return Fraction(x)
    if type(x) is float and math.isfinite(x):
        return Fraction(x).limit_denominator(RATIONAL_MAX_DENOMINATOR)
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, bool):
        if isinstance(x, numbers.Rational):
            return Fraction(x)
        if isinstance(x, numbers.Real):
            v = float(x)
            if math.isfinite(v):
                return Fraction(v).limit_denominator(RATIONAL_MAX_DENOMINATOR)
    raise InputError(f"{what} must be a finite rational or real number, got {shown(x)!r}")


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
    raise InputError(f"{what} must be a finite real number, got {shown(x)!r}")


def as_positive(x, what: str) -> float:
    """Finite float > 0, read by :func:`as_finite`."""
    v = as_finite(x, what)
    if not v > 0:
        raise InputError(f"{what} must be positive, got {v}")
    return v


def checked_replace(self, **changes):
    """The ``_replace`` method of a record whose ``__new__`` checks its
    fields: the fields named in the call are replaced and the record is
    built again by its constructor, which takes the record's fields by
    name, so a bad value raises the constructor's :class:`InputError` and
    a good one gives the record the constructor gives."""
    for name in changes:
        if name not in self._fields:
            raise InputError(f"{type(self).__name__} has no field {name!r}")
    return type(self)(**{f: changes.get(f, v) for f, v in zip(self._fields, self)})


def as_tuple(x, what: str) -> tuple:
    """The items of a list, a tuple, an array or another iterable; strings,
    mappings and non-iterables are rejected with :class:`InputError`."""
    if not isinstance(x, (str, bytes, Mapping)):
        try:
            return tuple(x)
        except TypeError:
            pass
    raise InputError(f"{what} must be a sequence, got {shown(x)!r}")
