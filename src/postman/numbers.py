"""Exact-number helpers.

Weights, QUBO coefficients, and energies are kept as ints or Fractions so
acceptance checks are exact integer/rational arithmetic. These helpers give
one canonical text form ("5", "7/2") used by all file formats.
"""

from __future__ import annotations

import math
import numbers as _abc
from fractions import Fraction

from .errors import InvalidArgumentError, ParseError

Number = int | Fraction


def as_exact(value) -> Number:
    """Coerce to an exact number; floats go through their decimal repr."""
    if type(value) is int:  # the common case, ahead of the ABC checks
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not weights")
    if isinstance(value, _abc.Integral):  # includes numpy integer scalars
        return int(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, _abc.Real):  # float and numpy float scalars
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{value!r} is not a finite number")
        return normalize(Fraction(repr(float(value))))
    if isinstance(value, str):
        return parse_number(value)
    raise TypeError(f"cannot treat {value!r} as an exact number")


def json_int(value) -> int:
    """A JSON integer as read; TypeError for anything else, floats and booleans too."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def normalize(value: Number) -> Number:
    """Collapse integral Fractions to plain ints."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def parse_number(text: str, line: int | None = None) -> Number:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return normalize(Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a number: {text!r}", line) from None


def format_number(value: Number) -> str:
    if type(value) is int:
        return str(value)
    value = normalize(as_exact(value))
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


def finite_or_str(value):
    """Keep JSON strict: an infinite float becomes the string 'inf' or '-inf'.
    Any other value passes through, NaN too, so that a JSON writer refusing
    NaN still catches one."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def to_jsonable(value: Number):
    """Ints stay ints; non-integral rationals serialize as 'p/q' strings."""
    value = normalize(as_exact(value))
    return value if isinstance(value, int) else format_number(value)
