"""Exact rational parsing, formatting and decimal rounding helpers."""

from __future__ import annotations

from fractions import Fraction

RATIONAL_DIGIT_LIMIT = 10_000  # digits per integer that parse_rational reads


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or a plain integer/decimal string into a Fraction.

    Raises ValueError for a non-string, a zero denominator, exponent
    notation (an exponent such as 1e-4000000 makes the value's size
    exponential in the length of the text), a non-ASCII character or '_'
    (which int() and Fraction() would read as digits or separators), or an
    integer of more than RATIONAL_DIGIT_LIMIT digits (a decimal's digits
    count together), a cap that also holds under any conversion limit.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational as a string, got {text!r}")
    if not text.isascii() or "_" in text:
        raise ValueError(f"a rational is ASCII without '_', got {text!r}")
    text = text.strip()
    if "e" in text.lower():
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    if "/" in text:
        num, den = text.split("/", 1)
        q = parse_integer(den.strip())
        if q == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(parse_integer(num.strip()), q)
    whole, _, frac = text.partition(".")
    if frac and not frac.isdigit():
        raise ValueError(f"not an integer, decimal or p/q: {text!r}")
    return Fraction(parse_integer(whole + frac), 10 ** len(frac))


def parse_integer(text: str) -> int:
    """An optionally signed string of ASCII digits, at most
    RATIONAL_DIGIT_LIMIT of them, as an int, read in chunks that int()
    converts under any conversion limit.  The one integer rule of the CLI's
    options, the edge-list reader and parse_rational: unlike int(), it takes
    no '_', no non-ASCII digit and no surrounding whitespace."""
    digits = text.lstrip("+-")
    if not (digits.isascii() and digits.isdigit()) or len(text) - len(digits) > 1:
        raise ValueError(f"not an integer: {text!r}")
    if len(digits) > RATIONAL_DIGIT_LIMIT:
        raise ValueError(
            f"{len(digits)} digits; rationals have at most {RATIONAL_DIGIT_LIMIT} digits"
        )
    value = 0
    for i in range(0, len(digits), _STR_SAFE_DIGITS):
        chunk = digits[i : i + _STR_SAFE_DIGITS]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text[0] == "-" else value


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q" (or "p" when the denominator is 1)."""
    value = Fraction(value)
    numerator = _decimal_digits(value.numerator)
    if value.denominator == 1:
        return numerator
    return f"{numerator}/{_decimal_digits(value.denominator)}"


# Up to 600 digits str() and int() work under any integer string conversion
# limit Python accepts (the least is 640 digits), so the splits stop there.
_STR_SAFE_DIGITS = 600
_STR_SAFE = 10**_STR_SAFE_DIGITS


def _decimal_digits(n: int) -> str:
    """Exact decimal form of the integer n, however many digits it has.

    str() refuses an int past the interpreter's integer string conversion
    limit (4300 digits by default), and lifting that limit process-wide
    would lift it for every caller, so a large n is split at a power of ten
    and each half is converted on its own.
    """
    if -_STR_SAFE < n < _STR_SAFE:
        return str(n)
    if n < 0:
        return "-" + _decimal_digits(-n)
    places = n.bit_length() * 3 // 20  # about half the digits (log10 2 > 3/10)
    high, low = divmod(n, 10**places)
    return _decimal_digits(high) + _decimal_digits(low).rjust(places, "0")


def round_half_even(value: Fraction, places: int) -> str:
    """Round exactly to `places` decimals with ties to even; returns a string."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    return _place_point(sign, round(abs(value) * 10**places), places)


def truncate_decimal(value: Fraction, places: int) -> str:
    """Truncate toward zero to `places` decimals; returns a string."""
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    return _place_point(sign, int(abs(value) * 10**places), places)


def _place_point(sign: str, units: int, places: int) -> str:
    digits = _decimal_digits(units).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
