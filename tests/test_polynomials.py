from fractions import Fraction

import pytest
from hypothesis import given, settings

from cartanfree import (
    GaussianRational,
    MultiPolynomial,
    P_ONE,
    P_ZERO,
    Polynomial,
    T,
    constant,
    degree_leading,
    monomial,
    parse_polynomial,
    scalar,
)
from cartanfree.errors import DegreeOverflowError, ParseError, ZeroPolynomialError
from cartanfree.polynomials import DEGREE_CAP

from conftest import polynomials, scalars


class TestShift:
    def test_square_shift_by_one(self):
        assert (T * T).shift(1) == parse_polynomial("t^2 - 2*t + 1")

    def test_identity_shift(self):
        f = parse_polynomial("t^3 - 1/2*t + 7")
        assert f.shift(0) == f
        assert f.shift(scalar(0)) == f

    def test_rational_shift(self):
        # (t - 3/2)^2 + (t - 3/2) = t^2 - 2t + 3/4
        f = parse_polynomial("t^2 + t")
        assert f.shift(scalar("3/2")) == parse_polynomial("t^2 - 2*t + 3/4")

    def test_degree_and_leading_preserved(self):
        f = parse_polynomial("5*t^4 - t")
        g = f.shift(scalar("7/3"))
        assert g.degree == 4 and g.leading == 5

    @given(polynomials(), scalars(), scalars())
    def test_shift_composes_additively(self, f, a, b):
        assert f.shift(a).shift(b) == f.shift(a + b)

    @settings(max_examples=40)
    @given(polynomials(max_degree=4), polynomials(max_degree=4), scalars())
    def test_shift_is_ring_homomorphism(self, f, g, c):
        assert (f * g).shift(c) == f.shift(c) * g.shift(c)
        assert (f + g).shift(c) == f.shift(c) + g.shift(c)

    def test_shift_against_sympy(self):
        import sympy

        t = sympy.Symbol("t")
        f = parse_polynomial("2*t^3 - 1/2*t + 1")
        c = scalar("5/3")
        expected = sympy.expand((2 * (t - Fraction(5, 3)) ** 3 - Fraction(1, 2) * (t - Fraction(5, 3)) + 1))
        got = f.shift(c)
        poly = sympy.Poly(expected, t)
        coeffs = list(reversed(poly.all_coeffs()))
        assert [x.re for x in got.coeffs] == [Fraction(c) for c in coeffs]


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (T - P_ONE) * (T + P_ONE) == parse_polynomial("t^2 - 1")

    def test_additive_identity(self):
        f = parse_polynomial("t^2 + 3")
        assert f + P_ZERO == f

    def test_scaling(self):
        # (t - 2*alpha) with alpha = 1, scaled by lambda = 2
        f = T - constant(2)
        assert f.scale(2) == parse_polynomial("2*t - 4")

    @given(polynomials(nonzero=True), polynomials(nonzero=True))
    def test_degree_additivity(self, f, g):
        assert (f * g).degree == f.degree + g.degree

    def test_divide_linear(self):
        f = parse_polynomial("3*t - 6")
        q, r = f.divide_linear(2)
        assert q == constant(3) and not r
        f = parse_polynomial("t^3 + 1")
        q, r = f.divide_linear(scalar(-1))
        assert not r
        assert q.mul_linear(scalar(-1)) == f

    @given(polynomials(), scalars())
    def test_divide_linear_reconstructs(self, f, root):
        q, r = f.divide_linear(root)
        assert q.mul_linear(root) + constant(r) == f

    def test_evaluate(self):
        f = parse_polynomial("t^2 - 2")
        assert f.evaluate(3) == 7
        assert f.evaluate(scalar("1i")) == -3


class TestDegreeLeading:
    def test_examples(self):
        assert degree_leading(parse_polynomial("3*t - 3")) == (1, scalar(3))
        assert degree_leading(monomial(5)) == (5, scalar(1))
        with pytest.raises(ZeroPolynomialError):
            degree_leading(P_ZERO)

    def test_zero_degree_is_none(self):
        assert P_ZERO.degree is None
        assert P_ZERO.is_zero


class TestDegreeCap:
    def test_cap_is_enforced(self):
        assert DEGREE_CAP == 64
        with pytest.raises(DegreeOverflowError):
            monomial(65)
        f = monomial(40)
        with pytest.raises(DegreeOverflowError):
            f * f

    def test_cap_checked_after_cancellation(self):
        assert parse_polynomial("t^65 - t^65") == P_ZERO
        assert parse_polynomial("0*t^70") == P_ZERO
        assert parse_polynomial("t^70 + t - t^70") == T
        with pytest.raises(DegreeOverflowError):
            parse_polynomial("t^65 + t - t")


class TestParsing:
    def test_examples(self):
        f = parse_polynomial("2*t^3 - 1/2*t + 1")
        assert f.coeffs == (scalar(1), scalar("-1/2"), scalar(0), scalar(2))
        mp = parse_polynomial("t1^2*t2")
        assert isinstance(mp, MultiPolynomial)
        assert mp.terms == {(2, 1): scalar(1)}

    def test_constant_is_univariate(self):
        assert parse_polynomial("5") == constant(5)
        assert parse_polynomial("0") == P_ZERO

    def test_complex_coefficients_bind_tightly(self):
        f = parse_polynomial("1/2+2/3i*t")
        assert f == T.scale(scalar("1/2+2/3i"))
        g = parse_polynomial("1/2 + 2/3i*t")
        assert g == T.scale(scalar("2/3i")) + constant(scalar("1/2"))

    def test_mixing_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("t + t1")

    def test_missing_star_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("3t")

    def test_leading_minus_before_variable(self):
        assert parse_polynomial("-t") == -T
        assert parse_polynomial("-t^2+1") == constant(1) - monomial(2)
        assert parse_polynomial("- t") == parse_polynomial("-1*t")
        assert parse_polynomial("-t1*t2 + t2") == parse_polynomial("-1*t1*t2 + t2")
        assert parse_polynomial("-3") == constant(-3)  # sign of the literal, as before
        for bad in ("--t", "-", "-x"):
            with pytest.raises(ParseError):
                parse_polynomial(bad)

    @given(polynomials())
    def test_render_parse_round_trip(self, f):
        assert parse_polynomial(str(f)) == f

    def test_multivariate_round_trip(self):
        mp = MultiPolynomial(3, {(1, 0, 2): scalar("1/2"), (0, 0, 0): scalar(-2), (2, 1, 0): scalar("1i")})
        assert parse_polynomial(str(mp)) == mp


class TestMultiPolynomial:
    def test_single_variable_embedding_agrees(self):
        f = parse_polynomial("t^2 - 2*t + 1")
        g = parse_polynomial("3*t + 5")
        F = MultiPolynomial.from_polynomial(f)
        G = MultiPolynomial.from_polynomial(g)
        assert (F + G).to_polynomial() == f + g
        assert (F * G).to_polynomial() == f * g
        assert F.shift_var(0, scalar("1/2")).to_polynomial() == f.shift(scalar("1/2"))
        assert F.mul_linear_var(0, scalar(3)).to_polynomial() == f.mul_linear(3)

    def test_leibniz_building_blocks(self):
        mp = parse_polynomial("t1*t2")
        shifted = mp.shift_var(1, 2)  # t2 -> t2 - 2
        assert shifted == parse_polynomial("t1*t2 - 2*t1")

    def test_degrees(self):
        mp = parse_polynomial("t1^2*t2 + t2^3")
        assert mp.degrees() == (2, 3)
        assert MultiPolynomial(2).degrees() is None

    def test_constant_term(self):
        mp = parse_polynomial("t1*t2 + 7")
        assert mp.constant_term == 7
