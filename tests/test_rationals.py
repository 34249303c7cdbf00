"""Exact rational formatting past the int-to-str digit limit, and parsing."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdfree.rationals import format_rational, parse_rational, round_half_even, truncate_decimal


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


def test_parse_rational_rejects_5000_digit_numerator():
    format_rational(Fraction(10**6000 + 1, 3))  # output leaves the limit in force
    with pytest.raises(ValueError):
        parse_rational("7" * 5000 + "/3")


# integers of any size: small ones, and 7^k plus a small offset for k up to
# 7,500 (about 6,300 digits), past the 4,300-digit limit of str() and int()
_MAGNITUDES = st.one_of(
    st.integers(0, 10**30),
    st.builds(lambda k, a: 7**k + a, st.integers(0, 7500), st.integers(0, 10**6)),
)


@given(_MAGNITUDES, _MAGNITUDES, st.booleans())
@settings(max_examples=150, deadline=None)
def test_parse_reads_back_what_format_writes(magnitude, denominator, negative):
    x = Fraction(-magnitude if negative else magnitude, denominator + 1)
    text = format_rational(x)
    numerator, _, denominator_text = text.lstrip("-").partition("/")
    limit = sys.get_int_max_str_digits()
    if max(len(numerator), len(denominator_text)) <= limit:
        assert parse_rational(text) == x
        return
    # past the limit the parser refuses the text, as documented; with the
    # limit lifted it reads back the same value
    with pytest.raises(ValueError):
        parse_rational(text)
    sys.set_int_max_str_digits(0)
    try:
        assert parse_rational(text) == x
    finally:
        sys.set_int_max_str_digits(limit)
