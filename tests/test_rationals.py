import cProfile
import math
import pickle
import pstats
import re
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qcatalyst import (
    INFINITY,
    parse_rational,
    render_decimal,
    render_rational,
)
from qcatalyst.rationals import decimal_text, parse_ratio, ratio_text, value_text


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0.45", Fraction(9, 20)),
            ("3/5", Fraction(3, 5)),
            ("0.05", Fraction(1, 20)),
            ("-0.45", Fraction(-9, 20)),
            ("7", Fraction(7)),
            ("0", Fraction(0)),
            ("1e-4300", Fraction(1, 10**4300)),
        ],
    )
    def test_exact_values(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1/2/3", "1..2", "0x10"])
    def test_malformed(self, text):
        with pytest.raises(ValueError, match="malformed"):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text", ["1e-100000000", "2E+4301", pytest.param("1e" + "9" * 5000, id="1e999...")]
    )
    def test_exponent_bound(self, text):
        # Fraction would build 10**exponent first; 1e-100000000 took minutes.
        with pytest.raises(ValueError, match="exceeds 4300"):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1" * 4301, id="1...1"),
            pytest.param("0." + "1" * 4301, id="0.1...1"),
            pytest.param("9" * 4300 + "/1" + "0" * 4300, id="9...9/10...0"),
            pytest.param("1_" * 4300 + "1", id="1_1..._1"),
        ],
    )
    def test_digit_bound(self, text):
        # CPython refuses to read an int of more than 4,300 digits.
        with pytest.raises(ValueError, match="has a number over 4300 digits"):
            parse_rational(text)

    def test_digit_runs_counted_in_linear_time(self):
        # 50 runs of 4,300 digits (215 KB): a search for a 4,301-digit run
        # from every position took 13 s.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational(("1" * 4300 + "x") * 50)
        assert time.perf_counter() - start < 1

    def test_short_digit_runs_are_not_counted_one_by_one(self):
        # A million one-digit runs (2 MB): no run is long, so _digits is
        # never called (once per run, 1,000,000 calls, before the C-level
        # length prefilter).
        profile = cProfile.Profile()
        with pytest.raises(ValueError, match="malformed rational"):
            profile.runcall(parse_ratio, "1 " * 1_000_000)
        calls = [n for (_, _, name), (_, n, *_) in pstats.Stats(profile).stats.items()
                 if name == "_digits"]
        assert sum(calls) == 0

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("3/0")

    def test_decimal_conversion_is_exact_not_binary(self):
        # 0.1 has no finite binary expansion; the exact decimal value must
        # come back, not the nearest double.
        assert parse_rational("0.1") == Fraction(1, 10)
        assert parse_rational("0.1") != Fraction(0.1)


def fraction_parse(text):
    """The reference parse: Fraction(text) behind the exponent and digit
    guards, with the messages parse_rational gives."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    exponent = re.search(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    try:
        in_range = exponent is None or int(exponent.group(1)) <= 4300
    except ValueError:
        in_range = False
    if not in_range:
        raise ValueError(f"exponent of rational {text!r} exceeds 4300 in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None
    except ValueError:
        if re.search(r"\d(?:_?\d){4300}", text):
            raise ValueError(f"rational {text!r} has a number over 4300 digits") from None
        raise ValueError(f"malformed rational {text!r}") from None


def outcome(parse, text):
    """What parse(text) returns, or the message of its ValueError."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


_digits = st.text("0123456789", min_size=1, max_size=5)
_grouped = st.lists(_digits, min_size=1, max_size=3).map("_".join)
_signs = st.sampled_from(["", "-", "+"])
_spaces = st.sampled_from(["", " ", "\t", "\n", "\u2003"])
_exponents = st.one_of(
    st.just(""),
    st.builds("".join, st.tuples(
        st.sampled_from("eE"), _signs,
        st.one_of(_grouped, st.sampled_from(["4300", "4301", "4_301", "9" * 5000])),
    )),
)
_literals = st.builds(
    "".join,
    st.tuples(
        _spaces, _signs, st.one_of(st.just(""), _grouped),
        st.one_of(
            _grouped.map("/{}".format),
            st.builds("".join, st.tuples(
                st.sampled_from(["", "."]), st.one_of(st.just(""), _grouped), _exponents,
            )),
        ),
        _spaces,
    ),
)
# Past the 4,300 digits int() converts: a whole part, a fractional part, a
# denominator, and digits split by underscores.
_LONG = ["1" * 4301, "0." + "1" * 4301, "1/" + "1" * 4301, "1_" * 4300 + "1", "1" * 4301 + "/0"]
rational_inputs = st.one_of(
    _literals,
    st.text("0123456789_-+./eE d\t\u0663x", max_size=10),
    st.sampled_from(_LONG),
    st.sampled_from([5, None, Fraction(1, 2), b"1", ["1"]]),
)


class TestIntParser:
    # parse_ratio reads Fraction's grammar as of CPython 3.11 on every
    # version; 3.10's Fraction has no underscores, 3.12's allows spaces
    # around "/".
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned to 3.11's Fraction")
    @given(rational_inputs)
    @example("1.")
    @example(".5")
    @example("1/0")
    @example("1e-4300")
    @example("1e4301")
    @example("1.d")
    @example("\u0663/\u0665")
    @example("1" * 4301 + "e9999")
    # Digits are counted as int() counts them: a long text with no digit,
    # whitespace, an exponent's sign and underscores are not digits.
    @example("x" * 4301)
    @example(" " * 4301 + "1")
    @example("1e+" + "0" * 4296 + "4300")
    @example("1" + "_1" * 4299)
    def test_pinned_to_parse_rational_and_fraction(self, text):
        expected = outcome(fraction_parse, text)
        assert outcome(parse_rational, text) == expected
        try:
            num, den = parse_ratio(text)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert den > 0
            assert Fraction(num, den) == expected == Fraction(text)

    def test_not_reduced(self):
        assert parse_ratio("0.40") == (40, 100)
        assert parse_ratio("-2/4") == (-2, 4)
        assert parse_ratio("15e-1") == (15, 10)
        assert parse_ratio("1.5e2") == (1500, 10)


class TestRendering:
    def test_always_num_den(self):
        assert render_rational(Fraction(3, 5)) == "3/5"
        assert render_rational(Fraction(1)) == "1/1"
        assert render_rational(Fraction(-9, 20)) == "-9/20"

    def test_infinity(self):
        assert render_rational(INFINITY) == "inf"
        assert render_decimal(INFINITY) == ("inf", True)

    @pytest.mark.parametrize(
        "value,text,exact",
        [
            (Fraction(9, 20), "0.45", True),
            (Fraction(1), "1", True),
            (Fraction(2, 3), "0.666666666666", False),
            (Fraction(-1, 8), "-0.125", True),
            (Fraction(0), "0", True),
        ],
    )
    def test_decimal(self, value, text, exact):
        assert render_decimal(value) == (text, exact)

    @given(st.fractions())
    def test_round_trip(self, x):
        assert parse_rational(render_rational(x)) == x

    @pytest.mark.parametrize("value", [True, 0.5, math.nan, -math.inf], ids=repr)
    @pytest.mark.parametrize("render", [render_rational, render_decimal])
    def test_values_that_are_not_rationals(self, render, value):
        # Read as _as_pair reads every value: a bool is not 1, and a float
        # but +inf is not exact.
        with pytest.raises(TypeError):
            render(value)

    @pytest.mark.parametrize(
        "value,text,decimal",
        [
            ("0.50", "1/2", ("0.5", True)),
            (Decimal("0.5"), "1/2", ("0.5", True)),
            (3, "3/1", ("3", True)),
            # An equal float, not INFINITY itself.
            (pickle.loads(pickle.dumps(INFINITY)), "inf", ("inf", True)),
        ],
        ids=["str", "Decimal", "int", "unpickled-inf"],
    )
    def test_values_render_as_as_pair_reads_them(self, value, text, decimal):
        assert (render_rational(value), render_decimal(value)) == (text, decimal)


def long_division(value: Fraction) -> tuple[str, bool]:
    """render_decimal's contract, one digit at a time: at most 12 fractional
    digits, stopping early once the remainder is 0."""
    num, den = value.numerator, value.denominator
    whole, rem = divmod(abs(num), den)
    digits = []
    while rem and len(digits) < 12:
        digit, rem = divmod(rem * 10, den)
        digits.append(str(digit))
    text = str(whole) + ("." + "".join(digits) if digits else "")
    return ("-" if num < 0 else "") + text, rem == 0


# A whole part of 5,001 digits, past the 4,300 that str() converts.
BIG = 10**5000 + 7
BIG_TEXT = "1" + "0" * 4999 + "7"


class TestRenderingContract:
    @given(st.fractions())
    def test_decimal_is_the_long_division(self, x):
        assert render_decimal(x) == long_division(x)

    @given(st.integers(-(10**45), 10**45), st.integers(1, 10**40))
    def test_decimal_is_the_long_division_at_large_denominators(self, num, den):
        x = Fraction(num, den)
        assert render_decimal(x) == long_division(x)

    @pytest.mark.parametrize(
        "value,text,exact",
        [
            # Truncated: all 12 digits stay, trailing zeros included.
            (Fraction(1, 10**13), "0.000000000000", False),
            (Fraction(1, 8192), "0.000122070312", False),
            # Terminating at exactly 12 digits.
            (Fraction(1, 4096), "0.000244140625", True),
            (Fraction(-7, 10**12), "-0.000000000007", True),
        ],
    )
    def test_twelve_digit_boundary(self, value, text, exact):
        assert render_decimal(value) == (text, exact)

    def test_whole_part_over_4300_digits(self):
        value = BIG + Fraction(1, 8)
        assert render_decimal(value) == (BIG_TEXT + ".125", True)
        assert render_decimal(-value) == ("-" + BIG_TEXT + ".125", True)
        assert render_rational(value) == "8" + "0" * 4998 + "57/8"

    def test_numerator_over_4300_digits(self):
        value = Fraction(BIG, 10**5000)
        assert render_decimal(value) == ("1.000000000000", False)
        assert render_rational(value) == BIG_TEXT + "/1" + "0" * 5000

    @pytest.mark.parametrize("value", [0, -7, Fraction(3), Fraction(-2, 3), INFINITY])
    def test_value_text_is_str(self, value):
        assert value_text(value) == str(value)

    def test_value_text_over_4300_digits(self):
        assert value_text(BIG) == BIG_TEXT
        assert value_text(Fraction(BIG)) == BIG_TEXT
        assert value_text(Fraction(-1, 10**5000)) == "-1/1" + "0" * 5000

    @pytest.mark.parametrize("digits", [700, 5000])
    def test_writers_at_the_lowest_int_limit(self, digits):
        # str() refuses an int past the interpreter's int_max_str_digits;
        # the writers give the same text with the limit off, at the
        # default and at the lowest setting, 640.
        n = 7 * (10**digits - 1) // 9  # digits sevens
        sevens = "7" * digits

        def texts():
            return [
                value_text(n), value_text(-n), value_text(Fraction(n)),
                value_text(Fraction(-1, n)), value_text(Fraction(n, 10**digits + 1)),
                ratio_text(n, 3), ratio_text(-1, n),
                decimal_text(4 * n + 1, 4), decimal_text(-3 * n - 1, 3),
            ]

        expected = [
            sevens, "-" + sevens, sevens,
            "-1/" + sevens, f"{sevens}/1{'0' * (digits - 1)}1",
            sevens + "/3", "-1/" + sevens,
            (sevens + ".25", True), ("-" + sevens + ".333333333333", False),
        ]
        saved = sys.get_int_max_str_digits()
        try:
            for limit in (0, sys.int_info.default_max_str_digits, 640):
                sys.set_int_max_str_digits(limit)
                assert texts() == expected, limit
        finally:
            sys.set_int_max_str_digits(saved)


class TestOrdering:
    @given(st.fractions(), st.fractions())
    def test_trichotomy(self, x, y):
        assert sum([x < y, x == y, x > y]) == 1

    @given(st.fractions())
    def test_infinity_is_maximum(self, x):
        assert x < INFINITY
        assert not INFINITY < x

    def test_is_infinite(self):
        # INFINITY is the one non-Fraction ExtendedRational; no Fraction equals it.
        assert not isinstance(INFINITY, Fraction)
        assert Fraction(10**30) != INFINITY
        assert render_rational(INFINITY) == "inf"
        assert render_decimal(INFINITY) == ("inf", True)
