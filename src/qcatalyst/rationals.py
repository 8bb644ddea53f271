"""Exact rational scalars: parsing, rendering, and +infinity.

Every quantity the package takes or returns is a ``fractions.Fraction``
(arbitrary precision, canonical reduced form, exact comparisons); the hot
paths underneath work on integer numerators over a common denominator.
Text is read into (numerator, denominator) ints by ``parse_ratio``, any
value the library reads by ``_as_pair``, and ``ratio_text``/``decimal_text``
write int pairs back out, so a request can go from text to text without a
Fraction.
Binary floats are banned from all computations; they appear nowhere except
as the ordering sentinel ``INFINITY`` below, which never enters arithmetic.
"""
from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

# The lower bound m of the catalyst-ratio interval is unbounded when
# eps1 = 0 (the upper bound M is always below 1); comparisons between
# Fraction and math.inf are exact (CPython special-cases infinities), and
# INFINITY is only ever compared, never added or multiplied.
INFINITY: float = math.inf

ExtendedRational = Fraction | float

# Largest decimal exponent magnitude parse_rational accepts (Fraction builds
# 10**exponent), and the most digits of any number in the text, counted as
# int() counts them (not signs or underscores) on the text itself, so the
# limit holds whatever the interpreter's int_max_str_digits setting.
MAX_EXPONENT = MAX_DIGITS = 4300

# Fraction's string grammar (CPython 3.11), parsed by parse_ratio.
_RATIONAL = re.compile(
    r"\A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(?:_\d+)*)"
    r"(?:/(?P<den>\d+(?:_\d+)*)|(?:\.(?P<decimal>\d*|\d+(?:_\d+)*))?"
    r"(?:E(?P<exp>[-+]?\d+(?:_\d+)*))?)\s*\Z",
    re.IGNORECASE,
)
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
# One number's digits, maybe split by single underscores.
_NUMBER = re.compile(r"\d(?:_?\d)*")
# An int literal as int() reads it in base 10.
_INT = re.compile(r"\s*[-+]?" + _NUMBER.pattern + r"\s*")

# Sort key of (numerator, denominator > 0) int pairs by value; its keys
# compare, and test equal, by cross-multiplying.
ratio_key = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])

# Fractional digits render_decimal writes before it truncates.
_DECIMAL_DIGITS = 12
_DECIMAL_SCALE = 10**_DECIMAL_DIGITS


def _digits(number: str) -> int:
    """The digits int() counts in a number's text: not its sign or underscores."""
    return len(number.lstrip("+-")) - number.count("_")


def _int(text: str) -> int:
    """int(text) whatever the interpreter's int_max_str_digits limit, so
    that MAX_DIGITS alone bounds a number.  int() reads any text no longer
    than the lowest limit CPython allows; a longer int literal is read
    through Decimal, which has no limit.  Any other text raises int()'s
    ValueError, which Decimal would not: it reads "1.5" and "1e3"."""
    if len(text) > sys.int_info.str_digits_check_threshold and _INT.fullmatch(text):
        return int(Decimal(text))
    return int(text)


def parse_ratio(text: str) -> tuple[int, int]:
    """Parse "num/den" or a finite decimal literal, in Fraction's grammar,
    into (numerator, denominator) ints: denominator > 0, not reduced, so
    "0.40" -> (40, 100).  The value never passes through a binary float.

    Raises ValueError on malformed text, a zero denominator, a number of
    more than MAX_DIGITS digits or an exponent beyond MAX_EXPONENT.  Digits
    are counted on the text in one linear pass before any _int() call; a
    text of MAX_DIGITS characters or fewer cannot hold a longer number.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    match = _RATIONAL.match(text)
    if match:
        sign, num, den, decimal, exponent = match.groups()
    else:
        exponent = (found := _EXPONENT.search(text)) and found[1]
    # Checked first, on malformed text too; Fraction would build 10**exponent.
    if exponent and (_digits(exponent) > MAX_DIGITS or abs(_int(exponent)) > MAX_EXPONENT):
        raise ValueError(f"exponent of rational {text!r} exceeds {MAX_EXPONENT} in magnitude")
    runs = _NUMBER.findall(text) if len(text) > MAX_DIGITS else ()
    # A run's length bounds its digits: _digits reads the runs of a text
    # only when one of them is long, not once per run of every long text.
    if runs and max(map(len, runs)) > MAX_DIGITS and max(map(_digits, runs)) > MAX_DIGITS:
        raise ValueError(f"rational {text!r} has a number over {MAX_DIGITS} digits")
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    # "1.25" is 125 over 10**2: its digits are read as one number.
    decimal = (decimal or "").replace("_", "")
    num = _int((num or "0") + decimal)
    den = _int(den) if den else 10 ** len(decimal)
    if den == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    if exponent:
        exponent = _int(exponent)
        num, den = (num * 10**exponent, den) if exponent >= 0 else (num, den * 10**-exponent)
    return (-num if sign == "-" else num), den


def parse_rational(text: str) -> Fraction:
    """parse_ratio's value as a Fraction, with its messages."""
    return Fraction(*parse_ratio(text))


def _as_pair(value: Fraction | int | str, name: str = "") -> tuple[int, int]:
    """(numerator, denominator > 0) in lowest terms of an outside rational:
    every value the library reads enters here, but for an exact Fraction p
    of a two-qubit catalyst, which _two_qubit_parameter reads itself with
    one call fewer per catalyst check.  A string is parsed to ints
    in lowest terms (parse_ratio, then one gcd) without a Fraction; its
    parse error reads "name: ..." when the caller names the value.  A
    Fraction gives its own pair and an int is (value, 1), neither through a
    new Fraction; any other rational (a Decimal, an int subclass) is read
    through Fraction(value)."""
    # str first: Fraction is an ABC, so isinstance(value, Fraction) costs
    # about ten times as much, and most values read are text.
    if isinstance(value, str):
        try:
            num, den = parse_ratio(value)
        except ValueError as exc:
            raise (ValueError(f"{name}: {exc}") if name else exc) from None
        g = gcd(num, den)
        return num // g, den // g
    # Fraction next: the components of a spectrum built from Fractions.  The
    # exact type test keeps bool and the other int subclasses out.
    if isinstance(value, Fraction) or type(value) is int:
        return value.as_integer_ratio()
    # Floats are rejected everywhere: Fraction(0.1) would capture the binary
    # approximation, silently breaking exactness.
    if isinstance(value, float):
        raise TypeError("binary floats are not exact; pass a Fraction, int, or string")
    # bool is an int subclass; True must not pass for the rational 1.
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals; pass a Fraction, int, or string")
    return Fraction(value).as_integer_ratio()


def ratio_text(num: int, den: int) -> str:
    """"num/den" text of two ints; the core of render_rational."""
    try:
        return f"{num}/{den}"
    except ValueError:  # a part past the interpreter's int_max_str_digits
        return f"{Decimal(num)}/{Decimal(den)}"


def value_text(value: ExtendedRational | int) -> str:
    """str(value) of an int, a Fraction or INFINITY, at any size and under
    any int_max_str_digits setting: str() refuses a part past that limit,
    which Decimal writes instead.  The one writer of a number's text: error
    messages, decimal_text's whole part and the CLI's JSON ints use it."""
    try:
        return str(value)
    except ValueError:  # a part past the interpreter's int_max_str_digits
        num, den = value.as_integer_ratio()
        return str(Decimal(num)) if den == 1 else ratio_text(num, den)


def decimal_text(num: int, den: int) -> tuple[str, bool]:
    """render_decimal of num/den, for ints with den > 0."""
    whole, rem = divmod(abs(num), den)
    text = value_text(whole)
    if rem:
        # All 12 digits at once; the trailing zeros of a terminating
        # expansion are dropped, those of a truncation kept.
        scaled, rem = divmod(rem * _DECIMAL_SCALE, den)
        digits = "%0*d" % (_DECIMAL_DIGITS, scaled)
        text += "." + (digits if rem else digits.rstrip("0"))
    return ("-" if num < 0 else "") + text, rem == 0


def render_rational(value: ExtendedRational) -> str:
    """Render as "num/den" (or "inf") of the value _as_pair reads;
    parse_rational round-trips the result when both parts fit its input
    limits."""
    # A Fraction is never infinite; testing the type first skips the slow
    # Fraction == float comparison on every finite value.
    if not isinstance(value, Fraction) and value == INFINITY:
        return "inf"
    return ratio_text(*_as_pair(value))


def render_decimal(value: ExtendedRational) -> tuple[str, bool]:
    """Decimal rendering for display only, of the value _as_pair reads.

    Returns (text, exact).  ``exact`` is False when the expansion does not
    terminate within 12 fractional digits; the text is then a truncation
    and must be treated as approximate.
    """
    if not isinstance(value, Fraction) and value == INFINITY:
        return "inf", True
    return decimal_text(*_as_pair(value))
