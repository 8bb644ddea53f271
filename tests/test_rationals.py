from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcatalyst import (
    INFINITY,
    parse_rational,
    render_decimal,
    render_rational,
)


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

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("3/0")

    def test_decimal_conversion_is_exact_not_binary(self):
        # 0.1 has no finite binary expansion; the exact decimal value must
        # come back, not the nearest double.
        assert parse_rational("0.1") == Fraction(1, 10)
        assert parse_rational("0.1") != Fraction(0.1)


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
