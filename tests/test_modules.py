from fractions import Fraction

import pytest

from cartanfree import (
    ActionTable,
    Block,
    C,
    IndexBox,
    L,
    LOOP,
    MultiPolynomial,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ONE,
    P_ZERO,
    T,
    TensorOmega,
    VIRASORO,
    build_action_table,
    derive_parameters,
    match_template,
    monomial,
    parse_element,
    parse_polynomial,
    scalar,
    strip_t,
)
from cartanfree.errors import (
    DegreeMismatchError,
    InconsistentEntryError,
    KindMismatchError,
    NotInSubmoduleError,
)

BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))


class TestBasisActions:
    def test_loop_action_on_one(self):
        # lam^(i-j) mu^j (t - i*alpha) shifted: here 2^0 * 3^1 * (t - 1)
        spec = OmegaLoop(2, 3, 1)
        assert spec.act_basis(L(1, 1), P_ONE) == parse_polynomial("3*t - 3")

    def test_cartan_generator_multiplies_by_t(self):
        f = parse_polynomial("t^2 - 1/2")
        assert OmegaLoop(5, 7, 2).act_basis(L(0, 0), f) == T * f
        assert OmegaVir(3, 1).act_basis(L(0), f) == T * f
        assert OmegaBlock(2, 3, 1).act_basis(L(0, 0), f) == T * f
        assert OmegaBlockHV(3, 1, 2).act_basis(L(0, 0), f) == T * f

    def test_block_hv_beta_row(self):
        # q = -1: lam^3 * beta * f(t + 3) with lam = 1, beta = 2, f = t
        spec = OmegaBlockHV(1, 0, 2)
        assert spec.act_basis(L(3, 1), T) == parse_polynomial("2*t + 6")

    def test_central_symbols_act_as_zero(self):
        assert OmegaLoop(2, 3, 1).act_basis(C(5), parse_polynomial("t^3")).is_zero
        assert OmegaVir(2, 1).act_basis(C(), T).is_zero
        assert OmegaBlockHV(1, 1, 1).act_basis(C(), T).is_zero

    def test_high_rows_annihilate(self):
        assert OmegaBlock(2, 1, 1).act_basis(L(1, 3), parse_polynomial("t + 1")).is_zero
        assert OmegaBlockHV(1, 1, 2).act_basis(L(1, 2), T).is_zero

    def test_rational_shift_in_block_family(self):
        # q = 3/2, m = 2: shift by 3, root m*q*alpha = 3
        spec = OmegaBlock(scalar("3/2"), 1, 1)
        assert spec.act_basis(L(2, 0), P_ONE) == parse_polynomial("t - 3")
        assert spec.act_basis(L(1, 0), T) == parse_polynomial(
            "t^2 - 3*t + 9/4"
        )  # (t - 3/2)^2 with lam = 1

    def test_degree_growth_invariant(self):
        spec = OmegaLoop(scalar("1/2"), scalar("2i"), scalar("-1/2"))
        for f in [P_ONE, T, parse_polynomial("t^3 - t"), parse_polynomial("7*t^4 + 1")]:
            for (i, j) in [(0, 0), (2, -1), (-3, 2), (1, 4)]:
                g = spec.act_basis(L(i, j), f)
                assert g.degree == f.degree + 1
                assert g.leading == spec.lam ** (i - j) * spec.mu**j * f.leading

    def test_action_formula_against_sympy(self):
        import sympy

        t = sympy.Symbol("t")
        lam, mu, alpha = Fraction(2), Fraction(3, 2), Fraction(-1, 2)
        spec = OmegaLoop(lam, mu, alpha)
        f = parse_polynomial("t^2 - 2*t + 5")
        fs = t**2 - 2 * t + 5
        for (i, j) in [(1, 1), (-2, 3), (2, 0)]:
            expected = sympy.expand(
                lam ** (i - j) * mu**j * (t - i * alpha) * fs.subs(t, t - i)
            )
            got = spec.act_basis(L(i, j), f)
            sympy_coeffs = list(reversed(sympy.Poly(expected, t).all_coeffs()))
            assert [c.re for c in got.coeffs] == [Fraction(c) for c in sympy_coeffs]


class TestElementActions:
    def test_zero_element(self):
        assert OmegaLoop(2, 3, 1).act(LOOP.zero(), T).is_zero

    def test_linearity(self):
        spec = OmegaLoop(2, 3, 1)
        x = parse_element(LOOP, "L(1,-1)")
        f = parse_polynomial("t^2")
        assert spec.act(2 * x, f) == spec.act_basis(L(1, -1), f) * 2

    def test_virasoro_difference(self):
        spec = OmegaVir(1, 1)
        e = parse_element(VIRASORO, "L(1) - L(-1)")
        assert spec.act(e, P_ONE) == parse_polynomial("-2")

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            OmegaVir(1, 1).act(parse_element(LOOP, "L(1,0)"), P_ONE)


class TestTensorAction:
    def test_single_factor_reduces_to_loop(self):
        tens = TensorOmega([(2, 3, 1)])
        loop = OmegaLoop(2, 3, 1)
        for f in [P_ONE, T, parse_polynomial("t^2 + 1")]:
            emb = MultiPolynomial.from_polynomial(f, 1)
            for sym in [L(1, 1), L(-2, 0), L(0, 2), C(1)]:
                assert tens.act_basis(sym, emb).to_polynomial() == loop.act_basis(sym, f)

    def test_leibniz_rule_on_pure_tensor(self):
        tens = TensorOmega([(2, 1, 1), (3, 1, 0)])
        f = parse_polynomial("t1*t2")
        sym = L(1, 0)
        # slot 1: 2*(t1-1)(t1-1) tensor t2 ; slot 2: t1 tensor 3*t2*(t2-1)
        part1 = parse_polynomial("2*t1^2*t2 - 4*t1*t2 + 2*t2")
        part2 = parse_polynomial("3*t1*t2^2 - 3*t1*t2")
        assert tens.act_basis(sym, f) == part1 + part2

    def test_central_kills_tensor(self):
        tens = TensorOmega([(2, 1, 1), (3, 1, 0)])
        assert tens.act_basis(C(2), tens.one()).is_zero


class TestActionTables:
    def test_entries(self):
        table = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        assert table.entries[L(1, 0)] == parse_polynomial("2*t - 4")
        assert table.entries[C(1)].is_zero

    def test_hv_beta_entries_constant(self):
        spec = OmegaBlockHV(2, 1, scalar("1/2"))
        table = build_action_table(spec, BOX2_BLOCK)
        for m in range(-2, 3):
            assert table.entries[L(m, 1)] == parse_polynomial("1/2") * (scalar(2) ** m)

    def test_tensor_rejected(self):
        with pytest.raises(KindMismatchError):
            build_action_table(TensorOmega([(2, 1, 1)]), BOX2_LOOP)
        table = build_action_table(OmegaLoop(2, 1, 1), BOX2_LOOP)
        with pytest.raises(KindMismatchError):
            match_template(table, TensorOmega([(2, 1, 1)]))

    def test_json_round_trip(self):
        for spec, box in [
            (OmegaLoop(2, scalar("1/2+1i"), scalar("-1/2")), BOX2_LOOP),
            (OmegaBlock(scalar("3/2"), 2, 1), BOX2_BLOCK),
            (OmegaBlockHV(1, 0, 2), BOX2_BLOCK),
            (OmegaVir(scalar("2i"), 1), IndexBox((-3, 3))),
        ]:
            table = build_action_table(spec, box)
            back = ActionTable.from_json(table.to_json())
            assert back.algebra == table.algebra
            assert back.entries == table.entries


class TestMatchTemplate:
    def test_round_trip(self):
        table = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        assert match_template(table, OmegaLoop(2, 3, 2)).matched

    def test_mismatch_location(self):
        table = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        res = match_template(table, OmegaLoop(2, 3, 1))
        assert not res.matched
        assert res.first_mismatch is not None
        # 2t - 4 against 2t - 2 differs at the lowest-order L row in the box
        assert res.found != res.expected

    def test_nonzero_central_entry_rejected(self):
        table = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        table.entries[C(0)] = P_ONE
        res = match_template(table, OmegaLoop(2, 3, 2))
        assert not res.matched and res.first_mismatch == C(0)


class TestDeriveParameters:
    def test_example_table(self):
        entries = {
            L(1, 0): parse_polynomial("2*t - 4"),
            L(-1, 0): parse_polynomial("1/2*t + 1"),
            L(1, 1): parse_polynomial("3*t - 6"),
            L(0, 1): parse_polynomial("3/2*t"),
        }
        table = ActionTable(LOOP, IndexBox((-1, 1), (0, 1)), entries)
        deriv = derive_parameters(table)
        assert deriv.ok
        assert deriv.params == {"lambda": scalar(2), "mu": scalar(3), "alpha": scalar(2)}

    def test_round_trip_grid_sample(self):
        for lam, mu, alpha in [(2, 3, 2), (scalar("1/2"), scalar("2i"), 0), (-1, 1, scalar("-1/2"))]:
            spec = OmegaLoop(lam, mu, alpha)
            deriv = derive_parameters(build_action_table(spec, BOX2_LOOP))
            assert deriv.ok and deriv.params == spec.params()

    def test_constant_offset_violation(self):
        table = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        table.entries[L(0, 1)] = parse_polynomial("3/2*t + 5")
        deriv = derive_parameters(table)
        assert not deriv.ok
        assert "e_1" in deriv.violation and "5" in deriv.violation

    def test_degree_mismatch(self):
        table = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        table.entries[L(1, 0)] = parse_polynomial("t^2")
        with pytest.raises(DegreeMismatchError):
            derive_parameters(table)

    def test_missing_required_entry(self):
        table = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        del table.entries[L(1, 1)]
        with pytest.raises(InconsistentEntryError):
            derive_parameters(table)

    def test_bracket_constraint_violation(self):
        # a corrupted entry keeps the shape lam^(i-j) mu^j (t - i alpha) up to
        # a factor; the closed-form entry scan catches it before the bracket
        # phase runs
        table = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        table.entries[L(2, 2)] = table.entries[L(2, 2)] * 7
        deriv = derive_parameters(table)
        assert not deriv.ok
        assert deriv.violation == "entry L(2,2) = 63*t - 252 should be 9*t - 36"
        assert deriv.bracket_constraints_checked == 0

    def test_bracket_phase_covers_every_box_pair(self):
        # 25 L-symbols and 5 central symbols in the box: 30 * 29 / 2 pairs
        deriv = derive_parameters(build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP))
        assert deriv.ok and deriv.bracket_constraints_checked == 435

    def test_block_families(self):
        spec = OmegaBlock(scalar("3/2"), 2, scalar("-1/2"))
        deriv = derive_parameters(build_action_table(spec, BOX2_BLOCK))
        assert deriv.ok and deriv.params == spec.params()
        spec_hv = OmegaBlockHV(2, 1, scalar("1/2"))
        deriv = derive_parameters(build_action_table(spec_hv, BOX2_BLOCK))
        assert deriv.ok and deriv.params == spec_hv.params()
        # beta = 0 derives too
        spec_hv0 = OmegaBlockHV(2, 1, 0)
        deriv = derive_parameters(build_action_table(spec_hv0, BOX2_BLOCK))
        assert deriv.ok and deriv.params["beta"] == 0

    def test_virasoro_family(self):
        spec = OmegaVir(scalar("1/2"), 2)
        deriv = derive_parameters(build_action_table(spec, IndexBox((-3, 3))))
        assert deriv.ok and deriv.params == spec.params()


class TestStripT:
    def test_examples(self):
        assert strip_t(parse_polynomial("t^2 + t")) == parse_polynomial("t + 1")
        assert strip_t(T) == P_ONE
        with pytest.raises(NotInSubmoduleError):
            strip_t(parse_polynomial("t + 1"))
        assert strip_t(P_ZERO).is_zero

    def test_intertwiner_property(self):
        lam, mu = scalar(2), scalar("1/2+1i")
        spec0 = OmegaLoop(lam, mu, 0)
        spec1 = OmegaLoop(lam, mu, 1)
        for sym in [L(1, 1), L(-2, 0), L(0, 3), L(2, -2)]:
            for k in range(4):
                g = monomial(k + 1)
                assert strip_t(spec0.act_basis(sym, g)) == spec1.act_basis(
                    sym, strip_t(g)
                )
