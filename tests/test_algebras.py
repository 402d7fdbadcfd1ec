import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import (
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
from cartanfree.errors import (
    ExcludedSymbolError,
    KindMismatchError,
    NegativeSecondIndexError,
    ParseError,
    TruncationRangeError,
)


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
