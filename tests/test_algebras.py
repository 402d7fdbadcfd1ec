import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import (
    AlgebraElement,
    Block,
    BlockHat,
    BlockTrunc,
    C,
    IndexBox,
    L,
    LOOP,
    LoopVirasoro,
    VIRASORO,
    bracket_basis,
    centrality_check,
    jacobi_check,
    parse_box,
    parse_element,
    scalar,
    virasoro_embedding_check,
)
from cartanfree.algebras import BasisSymbol, _BlockBase
from cartanfree.scalars import GaussianRational
from cartanfree.analysis import GRID_Q
from cartanfree.errors import (
    ExcludedSymbolError,
    KindMismatchError,
    NegativeSecondIndexError,
    ParseError,
    TruncationRangeError,
)
from test_jacobi import GAUSSIAN_Q


class TestSymbolValidation:
    def test_excluded_symbol_in_derived_algebra(self):
        with pytest.raises(ExcludedSymbolError):
            Block(-1).validate_symbol(L(0, 2))

    def test_no_exclusion_when_minus_2q_not_positive(self):
        Block(1).validate_symbol(L(0, 2))  # -2q = -2: nothing excluded

    def test_truncation_range(self):
        with pytest.raises(TruncationRangeError):
            BlockTrunc(-1, 0, 1).validate_symbol(L(5, 2))

    def test_negative_second_index(self):
        with pytest.raises(NegativeSecondIndexError):
            BlockHat(2).validate_symbol(L(1, -1))

    def test_arity(self):
        with pytest.raises(KindMismatchError):
            LOOP.validate_symbol(L(1))
        with pytest.raises(KindMismatchError):
            VIRASORO.validate_symbol(C(1))
        with pytest.raises(ExcludedSymbolError):
            BlockTrunc(1, 0, 2).validate_symbol(C())

    def test_fractional_q_excludes_half_integers(self):
        # -2q = 1 when q = -1/2
        with pytest.raises(ExcludedSymbolError):
            Block(scalar("-1/2")).validate_symbol(L(0, 1))


class TestBrackets:
    def test_loop_identity_with_central_term(self):
        e = bracket_basis(LOOP, L(2, 1), L(-2, 0))
        assert e.terms == {L(0, 1): scalar(-4), C(1): scalar("1/2")}
        assert str(e) == "-4*L(0,1) + 1/2*C(1)"

    def test_block_coefficient_cancellation(self):
        # 2(0+1) - 1(1+1) = 0
        assert bracket_basis(Block(1), L(1, 0), L(2, 1)).is_zero

    def test_virasoro_central_charge(self):
        e = bracket_basis(VIRASORO, L(2), L(-2))
        assert e.terms == {L(0): scalar(-4), C(): scalar("1/2")}

    def test_self_bracket_vanishes(self):
        assert bracket_basis(LOOP, L(3, -1), L(3, -1)).is_zero
        assert bracket_basis(BlockHat(2), C(), C()).is_zero

    def test_bilinearity(self):
        x = LOOP.span(L(1, 0))
        y = LOOP.span(L(2, 5))
        lhs = x.bracket(2 * x + 3 * y)
        assert lhs == 3 * x.bracket(y)
        assert LOOP.zero().bracket(y).is_zero

    def test_element_bracket_example(self):
        e1 = parse_element(LOOP, "L(1,1) + L(2,2)")
        e2 = parse_element(LOOP, "L(0,1)")
        out = e1.bracket(e2)
        assert out == parse_element(LOOP, "-1*L(1,2) - 2*L(2,3)")

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            LOOP.span(L(1, 0)).bracket(VIRASORO.span(L(1)))

    def test_loop_grading(self):
        for i, j, k, l in [(1, -2, 3, 0), (-2, 1, 2, 2), (0, 3, 0, -3), (-3, 0, 3, 1)]:
            out = bracket_basis(LOOP, L(i, j), L(k, l))
            for sym in out.terms:
                if sym[0] == "L":
                    assert sym[1] == i + k and sym[2] == j + l
                else:
                    assert i + k == 0 and sym[1] == j + l

    def test_loop_zero_row_abelian(self):
        for j in range(-3, 4):
            for l in range(-3, 4):
                assert bracket_basis(LOOP, L(0, j), L(0, l)).is_zero

    def test_trunc_0_0_is_centerless_virasoro(self):
        q = scalar("3/2")
        alg = BlockTrunc(q, 0, 0)
        qinv = q.inverse()
        for m in range(-3, 4):
            for n in range(-3, 4):
                lhs = (qinv * alg.span(L(m, 0))).bracket(qinv * alg.span(L(n, 0)))
                vir = bracket_basis(VIRASORO, L(m), L(n))
                expected = alg.zero()
                for sym, c in vir.terms.items():
                    if sym[0] == "L":
                        expected = expected + alg.span(L(sym[1], 0)) * (c * qinv)
                    # central terms die in the truncation
                assert lhs == expected


class TestAntisymmetry:
    @settings(max_examples=60)
    @given(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
    )
    def test_loop_antisymmetry(self, i, j, k, l):
        fwd = bracket_basis(LOOP, L(i, j), L(k, l))
        bwd = bracket_basis(LOOP, L(k, l), L(i, j))
        assert (fwd + bwd).is_zero

    @settings(max_examples=60)
    @given(
        st.integers(-4, 4), st.integers(0, 4), st.integers(-4, 4), st.integers(0, 4)
    )
    def test_block_antisymmetry(self, m, i, n, j):
        alg = BlockHat(scalar("-3/2"))
        fwd = bracket_basis(alg, L(m, i), L(n, j))
        bwd = bracket_basis(alg, L(n, j), L(m, i))
        assert (fwd + bwd).is_zero


class TestJacobi:
    def test_loop_box(self):
        report = jacobi_check(LOOP, IndexBox((-2, 2), (-2, 2)))
        assert report.ok and report.triples_checked > 0

    def test_block_rational_q(self):
        report = jacobi_check(Block(scalar("3/2")), IndexBox((-2, 2), (0, 2)))
        assert report.ok

    def test_block_hat_with_center(self):
        report = jacobi_check(BlockHat(scalar(-2)), IndexBox((-2, 2), (0, 2)))
        assert report.ok

    def test_truncated(self):
        report = jacobi_check(BlockTrunc(scalar(-1), 0, 1), IndexBox((-3, 3), (0, 1)))
        assert report.ok

    def test_gaussian_q(self):
        report = jacobi_check(BlockHat(scalar("1+1i")), IndexBox((-1, 1), (0, 1)))
        assert report.ok

    def test_brackets_evaluated_counts_bracket_pairs_calls(self):
        calls = []

        class CountingLoop(LoopVirasoro):
            def bracket_pairs(self, x, y):
                calls.append((x, y))
                return super().bracket_pairs(x, y)

        report = jacobi_check(CountingLoop(), IndexBox((-2, 2), (-2, 2)))
        assert report.ok
        # once per pair: 72 symbols with a row (30 in the box, 42 reached) x 30
        assert report.brackets_evaluated == len(calls) == len(set(calls)) == 72 * 30
        assert report.as_dict()["brackets_evaluated"] == len(calls)


class TestCentrality:
    def test_block_hat_extra_central_generator(self):
        report = centrality_check(BlockHat(-3), L(0, 3), IndexBox((-3, 3), (0, 3)))
        assert report.central

    def test_loop_central_elements(self):
        report = centrality_check(LOOP, C(7), IndexBox((-3, 3), (-3, 3)))
        assert report.central

    def test_non_central_witness(self):
        report = centrality_check(BlockHat(2), L(0, 1), IndexBox((-3, 3), (0, 3)))
        assert not report.central
        assert "L(1,0)" in report.witness or "L(-" in report.witness


class TestVirasoroEmbedding:
    @pytest.mark.parametrize("q", ["2", "1", "-1", "-3", "1/2", "3/2"])
    def test_rescaled_copy_brackets_match(self, q):
        report = virasoro_embedding_check(scalar(q), IndexBox((-4, 4)))
        assert report.ok and report.pairs_checked == 55


class TestExclusionInvariant:
    def test_coefficient_vanishes_identically(self):
        # when m + n = 0 and i + j = -2q the coefficient n(i+q) - m(j+q)
        # collapses to n(i + j + 2q) = 0, so the excluded symbol never shows up
        rng = random.Random(7)
        for q_str in ["-1/2", "-1", "-3/2", "-2", "-3"]:
            alg = Block(scalar(q_str))
            hits = 0
            while hits < 200:
                m, n = rng.randint(-8, 8), rng.randint(-8, 8)
                i, j = rng.randint(0, 8), rng.randint(0, 8)
                x, y = L(m, i), L(n, j)
                if alg.excluded in (x, y):
                    continue
                hits += 1
                out = alg.bracket_pairs(x, y)
                assert all(s != alg.excluded for s, _ in out)

    @pytest.mark.parametrize(
        "cls,trunc", [(Block, ()), (BlockTrunc, (0, 2))], ids=["block", "block-trunc"]
    )
    def test_bracket_landing_on_excluded_symbol_raises(self, cls, trunc):
        # q = -1/2 excludes L(0,1); [L(1,0), L(-1,1)] lands there with the
        # coefficient -1*(0 - 1/2) - 1*(1 - 1/2) = 0, which a broken _coeff makes 1
        q = scalar("-1/2")

        class Broken(cls):
            def _coeff(self, m, i, n, j):
                return cls._coeff(self, m, i, n, j) + scalar(1)

        assert cls(q, *trunc).bracket_pairs(L(1, 0), L(-1, 1)) == ()
        with pytest.raises(ExcludedSymbolError, match=r"produced excluded symbol L\(0,1\)"):
            Broken(q, *trunc).bracket_pairs(L(1, 0), L(-1, 1))


class TestBlockCoefficient:
    @pytest.mark.parametrize("q", [str(q) for q in GRID_Q] + list(GAUSSIAN_Q))
    def test_matches_scalar_arithmetic(self, q):
        # _coeff builds n(i+q) - m(j+q) in one step; it must equal the value
        # computed with scalar arithmetic, in the same canonical (a, b, d)
        q = scalar(q)
        alg = BlockHat(q)
        for m in range(-4, 5):
            for n in range(-4, 5):
                for i in range(5):
                    for j in range(5):
                        got = _BlockBase._coeff(alg, m, i, n, j)
                        want = scalar(n) * (scalar(i) + q) - scalar(m) * (scalar(j) + q)
                        assert (got.a, got.b, got.d) == (want.a, want.b, want.d), (m, i, n, j)


def _trusted_cases():
    cases = [("virasoro", VIRASORO, IndexBox((-4, 4))), ("loop", LOOP, IndexBox((-3, 3), (-2, 2)))]
    for q in [str(q) for q in GRID_Q] + list(GAUSSIAN_Q):
        box = IndexBox((-3, 3), (0, 3))
        cases += [
            (f"block-hat q={q}", BlockHat(scalar(q)), box),
            (f"block q={q}", Block(scalar(q)), box),
            (f"block-trunc q={q}", BlockTrunc(scalar(q), 1, 3), box),
        ]
    return cases


TRUSTED_CASES = _trusted_cases()


class TestTrustedBracketTerms:
    """``bracket_pairs`` builds its symbols and integer coefficients unchecked.

    They must be the same values the checked constructors build: a
    BasisSymbol equal in ==, hash and str to L(...) or C(...), whose text
    parses back to it, and a coefficient in canonical (a, b, d) form.
    """

    @pytest.mark.parametrize(
        "algebra,box", [c[1:] for c in TRUSTED_CASES], ids=[c[0] for c in TRUSTED_CASES]
    )
    def test_terms_match_checked_constructors(self, algebra, box):
        syms = algebra.symbols_in_box(box)
        seen = 0
        for x in syms:
            for y in syms:
                for s, c in algebra.bracket_pairs(x, y):
                    seen += 1
                    checked = (L if s[0] == "L" else C)(*s[1:])
                    assert type(s) is BasisSymbol
                    assert s == checked and hash(s) == hash(checked) and str(s) == str(checked)
                    assert {checked: 1}[s] == 1
                    assert parse_element(algebra, str(s)).terms == {checked: scalar(1)}
                    assert type(c) is GaussianRational and c
                    canonical = scalar(Fraction(c.a, c.d)) + scalar(Fraction(c.b, c.d)) * scalar("1i")
                    assert (c.a, c.b, c.d) == (canonical.a, canonical.b, canonical.d)
        assert seen


class TestElementParsing:
    def test_two_term_element(self):
        e = parse_element(LOOP, "L(1,2) - 3*C(0)")
        assert e.terms == {L(1, 2): scalar(1), C(0): scalar(-3)}

    def test_excluded_symbol_message(self):
        with pytest.raises(ParseError) as exc:
            parse_element(Block(-1), "L(0,2)")
        assert "excluded" in str(exc.value)

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse_element(LOOP, "L(1)")

    def test_zero_literal(self):
        assert parse_element(LOOP, "0").is_zero

    def test_leading_minus_before_generator(self):
        assert parse_element(VIRASORO, "-L(1)").terms == {L(1): scalar(-1)}
        e = parse_element(LOOP, "- L(1,2) + 3*C(0)")
        assert e.terms == {L(1, 2): scalar(-1), C(0): scalar(3)}
        assert parse_element(VIRASORO, "-C").terms == {C(): scalar(-1)}
        with pytest.raises(ParseError):
            parse_element(VIRASORO, "--L(1)")

    def test_coefficient_forms(self):
        e = parse_element(VIRASORO, "-4*L(0) + 1/2*C")
        assert e.terms == {L(0): scalar(-4), C(): scalar("1/2")}
        assert str(e) == "-4*L(0) + 1/2*C"

    def test_render_parse_round_trip(self):
        for alg, text in [
            (LOOP, "L(1,2) - 3*C(0) + 1/2+2/3i*L(-1,-1)"),
            (VIRASORO, "L(-3) - C"),
            (BlockHat(2), "2i*L(0,1) - L(1,0)"),
        ]:
            e = parse_element(alg, text)
            assert parse_element(alg, str(e)) == e

    def test_merging_terms(self):
        e = parse_element(LOOP, "L(1,1) + L(1,1) - 2*L(1,1)")
        assert e.is_zero


class TestBoxParsing:
    def test_symmetric(self):
        assert parse_box("3") == IndexBox((-3, 3), (-3, 3))

    def test_named(self):
        assert parse_box("i=-2..2,j=0..3") == IndexBox((-2, 2), (0, 3))
        assert parse_box("m=-1..4,i=0..2", ("m", "i")) == IndexBox((-1, 4), (0, 2))

    def test_bad_name(self):
        with pytest.raises(ParseError):
            parse_box("x=0..1")

    def test_box_symbols_clip_to_basis(self):
        syms = BlockHat(1).symbols_in_box(IndexBox((-1, 1), (-2, 2)))
        assert L(0, 0) in syms and C() in syms
        assert all(s[0] == "C" or s[2] >= 0 for s in syms)
        syms = Block(-1).symbols_in_box(IndexBox((0, 0), (0, 3)))
        assert L(0, 2) not in syms  # the excluded symbol
        assert L(0, 3) in syms


class TestBoxScanning:
    """parse_box reads ['-'] ASCII digits with the shared integer scanner."""

    @pytest.mark.parametrize(
        "text,names,box",
        [
            (" 3 ", ("i", "j"), IndexBox((-3, 3), (-3, 3))),
            ("0", ("i", "j"), IndexBox((0, 0), (0, 0))),
            ("i= -1 .. 2 ,j=0..1", ("i", "j"), IndexBox((-1, 2), (0, 1))),
            ("j=0..3, i=-2..2", ("i", "j"), IndexBox((-2, 2), (0, 3))),
            ("i=-4..4", ("i",), IndexBox((-4, 4))),
        ],
    )
    def test_valid(self, text, names, box):
        assert parse_box(text, names) == box

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("1_0", 1),
            ("+3", 0),
            ("٣", 0),
            ("i=0..²", 5),
            ("i=0..1,i=2..3", 7),
            ("i=0..1, j=0..1,j=2..3", 15),
            ("-1", 0),
            ("i=0..1;j=0..1", 6),
            ("i=1", 3),
        ],
    )
    def test_malformed_is_a_parse_error_at_its_offset(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse_box(text)
        assert info.value.position == offset


ALGEBRAS = [VIRASORO, LOOP, Block(-1), BlockHat(2), BlockTrunc(1, 0, 2)]


@st.composite
def elements(draw):
    from conftest import scalars

    alg = draw(st.sampled_from(ALGEBRAS))
    syms = alg.symbols_in_box(IndexBox((-3, 3), (-3, 3)))
    terms = draw(st.dictionaries(st.sampled_from(syms), scalars(), max_size=6))
    return AlgebraElement(alg, terms)


class TestElementRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(elements())
    def test_str_reparses_to_the_element(self, e):
        assert parse_element(e.algebra, str(e)) == e
