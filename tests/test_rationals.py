"""Exact rational formatting past the int-to-str digit limit, and parsing."""

from __future__ import annotations

import sys
from decimal import ROUND_DOWN, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdfree.rationals import (
    RATIONAL_DIGIT_LIMIT,
    format_rational,
    parse_rational,
    round_half_even,
    truncate_decimal,
)


def test_output_past_the_digit_limit():
    values = [Fraction(-3**9000, 7**5000), Fraction(10**600), Fraction(10**600 - 1, 10**600 + 1)]
    values += [Fraction(7**k + 1, 3**k) for k in (700, 710, 5000, 5136)]
    texts = [format_rational(v) for v in values]
    big = Fraction(-(10**4400) - 1, 8)
    decimals = [round_half_even(big, 3), truncate_decimal(big, 2)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for value, text in zip(values, texts):
            assert text == f"{value.numerator}/{value.denominator}".removesuffix("/1")
        assert decimals == [f"-{10**4400 // 8}.125", f"-{10**4400 // 8}.12"]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("digits", [5000, RATIONAL_DIGIT_LIMIT])
def test_parse_rational_reads_back_past_the_conversion_limit(digits):
    # past str()'s and int()'s 4,300 digits, under the least conversion limit
    # Python accepts, and as numerator, denominator and decimal digits
    top = 10 ** (digits - 1)
    values = [Fraction(top + 7, 3), Fraction(-3, top + 1), Fraction(top - 1, top + 1)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for x in values:
            assert parse_rational(format_rational(x)) == x
        assert parse_rational("-0." + "0" * (digits - 2) + "5") == Fraction(-5, 10 ** (digits - 1))
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit


def test_parse_rational_rejects_digits_past_the_cap():
    past = "7" * (RATIONAL_DIGIT_LIMIT + 1)
    for text in (past, f"{past}/3", f"3/{past}", f"-{past}", f"0.{past[1:]}", f"{past[1:]}.5"):
        with pytest.raises(ValueError, match=f"at most {RATIONAL_DIGIT_LIMIT} digits"):
            parse_rational(text)
    assert parse_rational("0" * RATIONAL_DIGIT_LIMIT + "/1") == 0


@pytest.mark.parametrize(
    "text, value",
    [
        ("1/2", Fraction(1, 2)), (" -3 / 4 ", Fraction(-3, 4)), ("1/-2", Fraction(-1, 2)),
        ("+5", Fraction(5)), ("-.5", Fraction(-1, 2)), ("1.", Fraction(1)), ("0.250", Fraction(1, 4)),
        ("00012/0004", Fraction(3)), ("-0", Fraction(0)),
    ],
)
def test_parse_rational_reads_integers_decimals_and_quotients(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text", ["", ".", "-", "+-1", "--1", "1.2.3", "1/2/3", "1 2", "1/", "/2", "0x10", "1/0", "inf"]
)
def test_parse_rational_rejects_what_is_not_a_rational(text):
    with pytest.raises(ValueError):
        parse_rational(text)


# integers of any size: small ones, and 7^k plus a small offset for k up to
# 7,500 (about 6,300 digits), past the 4,300-digit limit of str() and int()
# and below RATIONAL_DIGIT_LIMIT
_MAGNITUDES = st.one_of(
    st.integers(0, 10**30),
    st.builds(lambda k, a: 7**k + a, st.integers(0, 7500), st.integers(0, 10**6)),
)


@given(_MAGNITUDES, _MAGNITUDES, st.booleans())
@settings(max_examples=150, deadline=None)
def test_parse_reads_back_what_format_writes(magnitude, denominator, negative):
    x = Fraction(-magnitude if negative else magnitude, denominator + 1)
    assert parse_rational(format_rational(x)) == x


def _quantized(value: Fraction, places: int, rounding: str) -> str:
    """value at `places` decimals by the decimal module, an independent
    oracle: at a precision past the digits of num * 10**places and den
    together, the quotient lies nearer the exact value than any tie or place
    the exact value is not on, so quantize rounds it as it would the exact
    value."""
    with localcontext() as ctx:
        ctx.prec = len(str(abs(value.numerator) * 10**places)) + len(str(value.denominator)) + 5
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
        return f"{quotient.quantize(Decimal(1).scaleb(-places), rounding=rounding):f}"


def _assert_rounds_like_decimal(value: Fraction, places: int) -> None:
    assert round_half_even(value, places) == _quantized(value, places, ROUND_HALF_EVEN)
    assert truncate_decimal(value, places) == _quantized(value, places, ROUND_DOWN)


_PLACES = st.integers(0, 8)
# long denominators, and products of powers of 2 and 5, whose values end in
# few decimals and so often sit on a tie or on a place exactly
_DENOMINATORS = st.one_of(
    st.integers(1, 10**30),
    st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 12), st.integers(0, 12)),
)


@given(st.integers(-(10**30), 10**30), _DENOMINATORS, _PLACES)
@settings(max_examples=300, deadline=None)
def test_rounding_agrees_with_decimal(numerator, denominator, places):
    _assert_rounds_like_decimal(Fraction(numerator, denominator), places)


@given(st.integers(0, 10**12), _PLACES, st.booleans())
@settings(max_examples=200, deadline=None)
def test_rounding_of_exact_ties_agrees_with_decimal(k, places, negative):
    tie = Fraction(2 * k + 1, 2 * 10**places)
    _assert_rounds_like_decimal(-tie if negative else tie, places)


@pytest.mark.parametrize("value", [Fraction(-1, 10**9), Fraction(-1, 2 * 10**6)])
def test_a_negative_value_that_rounds_to_zero_keeps_its_sign(value):
    _assert_rounds_like_decimal(value, 6)
    assert round_half_even(value, 6) == truncate_decimal(value, 6) == "-0.000000"
