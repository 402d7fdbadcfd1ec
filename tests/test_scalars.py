from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import GaussianRational, I, ONE, ZERO, parse_scalar, pow_int, scalar
from cartanfree.errors import (
    DivisionByZeroError,
    NonInvertibleError,
    ParseError,
    ZeroDenominatorError,
)

from conftest import scalars


class TestParsing:
    def test_plain_rational(self):
        assert parse_scalar("3/2") == GaussianRational(Fraction(3, 2))

    def test_complex_literal(self):
        x = parse_scalar("-1/2+2/3i")
        assert x.re == Fraction(-1, 2)
        assert x.im == Fraction(2, 3)

    def test_pure_imaginary(self):
        assert parse_scalar("2i") == GaussianRational(0, 2)
        assert parse_scalar("-1i") == -I

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            parse_scalar("1/0")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_scalar("3/2+x")
        assert exc.value.position >= 3

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar("1 1")

    def test_integer_and_whitespace(self):
        assert parse_scalar(" 42 ") == 42

    @given(scalars())
    def test_render_parse_round_trip(self, x):
        assert parse_scalar(str(x)) == x

    def test_canonical_rendering(self):
        assert str(parse_scalar("-1/2+2/3i")) == "-1/2+2/3i"
        assert str(parse_scalar("2/4")) == "1/2"
        assert str(ZERO) == "0"
        assert str(parse_scalar("3-1i")) == "3-1i"


class TestRepresentation:
    def test_reduced_components(self):
        x = scalar(Fraction(2, 4)) + I * scalar(Fraction(6, 4))
        assert (x.re_num, x.re_den) == (1, 2)
        assert (x.im_num, x.im_den) == (3, 2)
        assert x.re_den > 0 and x.im_den > 0

    def test_equality_is_canonical(self):
        assert GaussianRational(Fraction(1, 2), Fraction(3, 4)) == GaussianRational(
            Fraction(2, 4), Fraction(6, 8)
        )

    def test_cross_type_equality_and_hash(self):
        assert scalar(3) == 3
        assert hash(scalar(3)) == hash(3)
        assert scalar(Fraction(1, 2)) == Fraction(1, 2)
        assert hash(scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert scalar("1i") != 1

    def test_as_int(self):
        assert scalar(-7).as_int() == -7
        assert scalar("1/2").as_int() is None
        assert scalar("1i").as_int() is None


class TestArithmetic:
    def test_example_product(self):
        # (1/2 + i)(1/2 - i) = 1/4 + 1 = 5/4
        x = scalar("1/2") + I
        y = scalar("1/2") - I
        assert x * y == scalar("5/4")

    def test_additive_identity(self):
        x = scalar("-3/7") + I * 2
        assert x + ZERO == x

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            ONE / ZERO

    def test_i_squared(self):
        assert I * I == -1

    def test_int_coercion(self):
        assert 2 * scalar("1/2") == 1
        assert scalar("1/2") - Fraction(1, 2) == 0

    @given(scalars(), scalars(), scalars())
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(scalars(nonzero=True))
    def test_multiplicative_inverse(self, x):
        assert x * x.inverse() == ONE
        assert x / x == ONE

    @given(scalars())
    def test_sub_neg(self, x):
        assert x - x == ZERO
        assert -(-x) == x


class TestPowers:
    def test_examples(self):
        assert pow_int(2, -2) == scalar("1/4")
        assert pow_int(I, 4) == 1
        with pytest.raises(NonInvertibleError):
            pow_int(0, -1)

    def test_zeroth_power(self):
        assert pow_int(0, 0) == 1
        assert pow_int(scalar("2/3"), 0) == 1

    @settings(max_examples=60)
    @given(
        scalars(nonzero=True),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-8, max_value=8),
    )
    def test_power_addition_law(self, x, a, b):
        assert pow_int(x, a + b) == pow_int(x, a) * pow_int(x, b)


class TestAsciiDigits:
    """Only ASCII 0-9 are digits: '²' (which int() rejects) and '٣' (which
    int() reads as 3) are parse errors at their offset in every literal."""

    @staticmethod
    def _parsers():
        from cartanfree import VIRASORO, parse_element, parse_polynomial

        return {
            "scalar": parse_scalar,
            "polynomial": parse_polynomial,
            "element": lambda text: parse_element(VIRASORO, text),
        }

    CASES = [
        ("scalar", "²", 0),
        ("scalar", "٣", 0),
        ("scalar", "1/٣", 2),
        ("scalar", "1+2²i", 1),  # the complex tail is not taken: trailing input
        ("polynomial", "t^²", 2),
        ("polynomial", "٣*t", 0),
        ("polynomial", "t٣", 1),
        ("polynomial", "2*t^٣", 4),
        ("element", "L(²)", 2),
        ("element", "L(-٣)", 3),
        ("element", "٣*L(1)", 0),
    ]

    @pytest.mark.parametrize("kind,text,offset", CASES)
    def test_non_ascii_digit_is_a_parse_error(self, kind, text, offset):
        with pytest.raises(ParseError) as info:
            self._parsers()[kind](text)
        assert info.value.position == offset

    def test_ascii_digits_still_read(self):
        p = self._parsers()
        assert parse_scalar("10/3") == GaussianRational(Fraction(10, 3))
        assert str(p["polynomial"]("3*t^10")) == "3*t^10"
        assert str(p["element"]("3*L(-10)")) == "3*L(-10)"
