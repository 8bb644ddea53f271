"""Exact rational scalars: parsing, rendering, and +infinity.

Every quantity the package takes or returns is a ``fractions.Fraction``
(arbitrary precision, canonical reduced form, exact comparisons); the hot
paths underneath work on integer numerators over a common denominator.
Binary floats are banned from all computations; they appear nowhere except
as the ordering sentinel ``INFINITY`` below, which never enters arithmetic.
"""
from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

# Upper bound of the catalyst-ratio interval can be unbounded; comparisons
# between Fraction and math.inf are exact (CPython special-cases infinities),
# and INFINITY is only ever compared, never added or multiplied.
INFINITY: float = math.inf

ExtendedRational = Fraction | float

# Lower end of the two-qubit catalyst parameter range [1/2, 1].
HALF = Fraction(1, 2)

# Largest decimal exponent magnitude parse_rational accepts (Fraction builds
# 10**exponent), and CPython's default digit limit on each number in the text.
MAX_EXPONENT = MAX_DIGITS = 4300

_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# Over MAX_DIGITS digits, maybe split by underscores; compiled on the error path.
_LONG_NUMBER = r"\d(?:_?\d){%d}" % MAX_DIGITS

# Fractional digits render_decimal writes before it truncates.
_DECIMAL_DIGITS = 12
_DECIMAL_SCALE = 10**_DECIMAL_DIGITS


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a finite decimal literal into an exact Fraction.

    Decimal literals convert through powers of ten ("0.45" -> 9/20); the
    value never passes through a binary float.

    Raises ValueError on malformed text, a zero denominator, a number of
    more than MAX_DIGITS digits or an exponent beyond MAX_EXPONENT.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    exponent = _EXPONENT.search(text)
    try:
        in_range = exponent is None or int(exponent.group(1)) <= MAX_EXPONENT
    except ValueError:  # more digits than int() converts: far out of range
        in_range = False
    if not in_range:
        raise ValueError(f"exponent of rational {text!r} exceeds {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except ValueError:
        if re.search(_LONG_NUMBER, text):
            raise ValueError(f"rational {text!r} has a number over {MAX_DIGITS} digits") from None
        raise ValueError(f"malformed rational {text!r}") from None


def _int_text(n: int) -> str:
    """Decimal text of any int; str(n) refuses more than 4,300 digits."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def ratio_text(num: int, den: int) -> str:
    """"num/den" text of two ints; the core of render_rational."""
    try:
        return f"{num}/{den}"
    except ValueError:  # a part over 4,300 digits
        return f"{_int_text(num)}/{_int_text(den)}"


def value_text(value: ExtendedRational | int) -> str:
    """str(value) of an int, a Fraction or INFINITY, at any size; error
    messages quote values through it."""
    try:
        return str(value)
    except ValueError:  # a part over 4,300 digits
        num, den = value.as_integer_ratio()
        return _int_text(num) if den == 1 else ratio_text(num, den)


def decimal_text(num: int, den: int) -> tuple[str, bool]:
    """render_decimal of num/den, for ints with den > 0."""
    whole, rem = divmod(abs(num), den)
    text = _int_text(whole)
    if rem:
        # All 12 digits at once; the trailing zeros of a terminating
        # expansion are dropped, those of a truncation kept.
        scaled, rem = divmod(rem * _DECIMAL_SCALE, den)
        digits = "%0*d" % (_DECIMAL_DIGITS, scaled)
        text += "." + (digits if rem else digits.rstrip("0"))
    return ("-" if num < 0 else "") + text, rem == 0


def render_rational(value: ExtendedRational) -> str:
    """Render as "num/den" (or "inf"); parse_rational round-trips the result
    when both parts fit its input limits."""
    # A Fraction is never infinite; testing the type first skips the slow
    # Fraction == float comparison on every finite value.
    if not isinstance(value, Fraction) and value == INFINITY:
        return "inf"
    return ratio_text(value.numerator, value.denominator)


def render_decimal(value: ExtendedRational) -> tuple[str, bool]:
    """Decimal rendering for display only.

    Returns (text, exact).  ``exact`` is False when the expansion does not
    terminate within 12 fractional digits; the text is then a truncation
    and must be treated as approximate.
    """
    if not isinstance(value, Fraction) and value == INFINITY:
        return "inf", True
    return decimal_text(value.numerator, value.denominator)
