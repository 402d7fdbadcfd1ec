import hashlib
import random

import pytest

from cartanfree import (
    Block,
    BlockHat,
    BlockTrunc,
    C,
    IndexBox,
    L,
    LOOP,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ONE,
    ProbeConfig,
    T,
    TensorOmega,
    VIRASORO,
    build_action_table,
    center_report,
    centrality_check,
    composition_series_check,
    constant,
    isomorphism_classify,
    module_axiom_check,
    monomial,
    parse_polynomial,
    scalar,
    simplicity_probe,
    submodule_invariance_check,
    tensor_irreducibility_probe,
)
from cartanfree.algebras import Virasoro
from cartanfree.analysis import GRID_Q, _OperatorColumns, _closure
from cartanfree.errors import WindowBudgetError
from cartanfree.linalg import SpanBasis, VectorWindow
from cartanfree.scalars import ONE, ZERO

from conftest import oracle_rank, spanning_symbols
from test_jacobi import GAUSSIAN_Q

BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))
TEST_POLYS = (P_ONE, T, monomial(2), parse_polynomial("t^3 - t"))


class TestModuleAxioms:
    def test_loop_family(self):
        report = module_axiom_check(OmegaLoop(2, 3, 1), BOX2_LOOP, TEST_POLYS)
        assert report.ok and report.pairs_checked > 0

    def test_block_hv_family(self):
        report = module_axiom_check(
            OmegaBlockHV(1, scalar("1/2"), 2), BOX2_BLOCK, TEST_POLYS
        )
        assert report.ok

    def test_block_family_rational_q(self):
        report = module_axiom_check(
            OmegaBlock(scalar("-3/2"), scalar("2i"), 1), BOX2_BLOCK, TEST_POLYS
        )
        assert report.ok

    def test_virasoro_family(self):
        report = module_axiom_check(OmegaVir(scalar("1/2"), 2), IndexBox((-2, 2)), TEST_POLYS)
        assert report.ok

    def test_tensor_family(self):
        report = module_axiom_check(
            TensorOmega([(2, 1, 1), (3, 1, 0)]),
            IndexBox((-1, 1), (-1, 1)),
            (parse_polynomial("t1*t2"), parse_polynomial("t1^2 + t2")),
        )
        assert report.ok

    def test_violation_detected_for_wrong_action(self):
        # deliberately broken "module": one generator gets a constant offset
        class Broken(OmegaLoop):
            def act_basis(self, sym, f):
                image = OmegaLoop.act_basis(self, sym, f)
                if sym == L(1, 1):
                    image = image + P_ONE
                return image

        report = module_axiom_check(Broken(2, 3, 1), IndexBox((-1, 1), (-1, 1)), (T,))
        assert not report.ok

    def test_violation_text_is_pinned(self):
        # a broken entry rather than a broken act_basis: the fused rule itself
        # runs the wrong x . 1, so every message comes out of the integer path
        class Broken(OmegaLoop):
            def entry(self, sym):
                e = OmegaLoop.entry(self, sym)
                return e + constant("1/3") if sym == L(2, 1) else e

        report = module_axiom_check(Broken(2, 3, 1), BOX2_LOOP, TEST_POLYS)
        assert (len(report.violations), report.pairs_checked, report.identities_checked) == (104, 435, 1740)
        assert report.violations[0] == "[L(-2,-2),L(2,1)].1: bracket action 8/3*t != commutator 8/3*t + 2/27"
        assert report.violations[-1] == (
            "[L(2,1),L(2,2)].t^3 - t = 0 but commutator gives -6*t^3 + 72*t^2 - 282*t + 360"
        )
        # every message, in order
        digest = hashlib.sha256("\n".join(report.violations).encode()).hexdigest()
        assert digest == "aec8151f86def5ee9128c226bd44667587d48322dd7edaa9ad31f1443adaba6f"

    def test_no_test_vectors_is_rejected(self):
        # with no vector to act on, every identity would pass vacuously
        with pytest.raises(ValueError, match="need at least one test vector"):
            module_axiom_check(OmegaLoop(2, 3, 1), BOX2_LOOP, ())


class TestSimplicityProbe:
    def test_loop_nonzero_alpha_fills(self):
        cfg = ProbeConfig(seeds=(P_ONE, T, parse_polynomial("t^2+1")))
        verdict = simplicity_probe(OmegaLoop(2, 3, 1), cfg)
        assert verdict.verdict == "FillsWindow" and verdict.dim == 5

    def test_loop_alpha_zero_proper_window(self):
        verdict = simplicity_probe(OmegaLoop(2, 3, 0), ProbeConfig(seeds=(T,)))
        assert verdict.verdict == "ProperInvariantWindow"
        assert verdict.dim == 4
        assert verdict.witness == "1"  # constants are missing
        assert verdict.certificate == "invariant-certified"

    def test_block_hv_beta_rescues_simplicity(self):
        cfg = ProbeConfig(box=BOX2_BLOCK)
        verdict = simplicity_probe(OmegaBlockHV(1, 0, 2), cfg)
        assert verdict.verdict == "FillsWindow"

    def test_block_hv_all_zero_parameters(self):
        cfg = ProbeConfig(box=BOX2_BLOCK, seeds=(T,))
        verdict = simplicity_probe(OmegaBlockHV(1, 0, 0), cfg)
        assert verdict.verdict == "ProperInvariantWindow"
        assert verdict.certificate == "invariant-certified"

    def test_closure_dim_cross_checked_against_oracle(self):
        # recompute one closure's rank through the independent elimination
        spec = OmegaLoop(2, 3, 0)
        window = VectorWindow(4)
        gens = spec.algebra.symbols_in_box(BOX2_LOOP)
        basis = _closure(T, gens, _OperatorColumns(spec, window).image, window, None)
        assert oracle_rank([list(r) for r in basis.rows]) == basis.rank == 4

    def test_generator_order_does_not_change_verdict(self):
        spec = OmegaLoop(scalar("1/2"), scalar(2), 1)
        window = VectorWindow(4)
        gens = spec.algebra.symbols_in_box(BOX2_LOOP)
        shuffled = list(gens)
        random.Random(3).shuffle(shuffled)
        a = _closure(parse_polynomial("t^2+1"), gens, _OperatorColumns(spec, window).image, window, None)
        b = _closure(parse_polynomial("t^2+1"), shuffled, _OperatorColumns(spec, window).image, window, None)
        assert a.rank == b.rank
        assert a.rows == b.rows  # reduced echelon form is canonical

    def test_report_shape(self):
        verdict = simplicity_probe(OmegaLoop(2, 3, 0), ProbeConfig(seeds=(T,)))
        d = verdict.as_dict()
        assert d["check"] == "simplicity"
        assert d["verdict"] == "ProperInvariantWindow"
        assert d["window"]["D"] == 4
        assert d["spec"]["family"] == "omega-loop"


class TestSubmoduleInvariance:
    def test_alpha_zero_invariant(self):
        report = submodule_invariance_check(OmegaLoop(2, 3, 0), BOX2_LOOP)
        assert report.invariant

    def test_alpha_nonzero_escapes(self):
        report = submodule_invariance_check(OmegaLoop(2, 3, 1), BOX2_LOOP)
        assert not report.invariant
        assert report.witness is not None

    def test_block_alpha_zero_invariant(self):
        report = submodule_invariance_check(OmegaBlock(2, 1, 0), BOX2_BLOCK)
        assert report.invariant

    def test_witness_is_concrete(self):
        # L(1,0) . t = 2 (t-1)^2 has constant term 2
        report = submodule_invariance_check(OmegaLoop(2, 3, 1), BOX2_LOOP, (T,))
        assert not report.invariant

    def test_no_test_vectors_is_rejected(self):
        # alpha = 1 escapes the subspace, but with no vector to act on it reported invariant
        with pytest.raises(ValueError, match="need at least one test vector"):
            submodule_invariance_check(OmegaLoop(2, 3, 1), BOX2_LOOP, ())


class TestCompositionSeries:
    def test_all_three_facts(self):
        report = composition_series_check(2, 3)
        assert report.invariance_ok
        assert report.trivial_quotient_ok
        assert report.intertwiner_ok

    def test_gaussian_parameters(self):
        report = composition_series_check(scalar("2i"), scalar("1/2"))
        assert report.ok

    def test_intertwiner_example(self):
        # strip(L(1,1) . t) at alpha 0 equals L(1,1) . 1 at alpha 1
        spec0, spec1 = OmegaLoop(2, 3, 0), OmegaLoop(2, 3, 1)
        from cartanfree import strip_t

        lhs = strip_t(spec0.act_basis(L(1, 1), T))
        assert lhs == parse_polynomial("3*t - 3") == spec1.act_basis(L(1, 1), P_ONE)


    @pytest.mark.parametrize("max_degree", [0, -3])
    def test_no_test_vectors_is_rejected(self, max_degree):
        # with no t^k to check, invariance and the intertwiner pass vacuously
        with pytest.raises(ValueError, match="max_degree must be >= 1"):
            composition_series_check(2, 3, IndexBox((-1, 1), (-1, 1)), max_degree)

    def test_unexpected_strip_error_propagates(self, monkeypatch):
        # only NotInSubmoduleError means "left the submodule"; a bug must surface
        import cartanfree.analysis as analysis

        real = analysis.strip_t

        def strict(g):
            if g.coeffs and g.coeffs[-1] == 1 and not any(g.coeffs[:-1]):
                return real(g)  # the test vectors t^k themselves
            raise RuntimeError("stubbed failure inside strip_t")

        monkeypatch.setattr(analysis, "strip_t", strict)
        with pytest.raises(RuntimeError, match="stubbed failure"):
            composition_series_check(2, 3, IndexBox((-1, 1), (-1, 1)), 2)


class TestIsomorphismClassify:
    def test_equal_tables(self):
        a = build_action_table(OmegaLoop(2, 3, 1), BOX2_LOOP)
        b = build_action_table(OmegaLoop(2, 3, 1), BOX2_LOOP)
        res = isomorphism_classify(a, b)
        assert res.isomorphic
        assert res.params == {"lambda": scalar(2), "mu": scalar(3), "alpha": scalar(1)}

    def test_mu_is_an_invariant(self):
        a = build_action_table(OmegaLoop(2, 3, 1), BOX2_LOOP)
        b = build_action_table(OmegaLoop(2, 4, 1), BOX2_LOOP)
        res = isomorphism_classify(a, b)
        assert not res.isomorphic and res.differing == "mu"

    def test_alpha_differs(self):
        a = build_action_table(OmegaLoop(2, 3, 1), BOX2_LOOP)
        b = build_action_table(OmegaLoop(2, 3, 2), BOX2_LOOP)
        res = isomorphism_classify(a, b)
        assert not res.isomorphic and res.differing == "alpha"

    def test_lambda_differs(self):
        a = build_action_table(OmegaVir(2, 1), IndexBox((-2, 2)))
        b = build_action_table(OmegaVir(3, 1), IndexBox((-2, 2)))
        res = isomorphism_classify(a, b)
        assert not res.isomorphic and res.differing == "lambda"


class TestTensorProbe:
    def test_two_distinct_factors_fill(self):
        cfg = ProbeConfig(max_degree=3, seeds=(P_ONE,))
        verdict = tensor_irreducibility_probe([(2, 1, 1), (3, 1, 1)], cfg)
        assert verdict.verdict == "FillsWindow" and verdict.dim == 16

    def test_single_factor_agrees_with_simplicity_probe(self):
        cfg = ProbeConfig(seeds=(P_ONE, T))
        for alpha in (1, 0):
            direct = simplicity_probe(OmegaLoop(2, 3, alpha), cfg)
            tensed = tensor_irreducibility_probe([(2, 3, alpha)], cfg)
            assert direct.verdict == tensed.verdict
            assert direct.dim == tensed.dim
            # seed keys render t as t1 in the tensor module; the dims must agree
            assert list(direct.seed_dims.values()) == list(tensed.seed_dims.values())
            assert direct.witness == tensed.witness
            assert direct.certificate == tensed.certificate
        assert direct.certificate == "invariant-certified"  # alpha = 0

    def test_alpha_zero_factor_gives_invariant_slice(self):
        cfg = ProbeConfig(max_degree=3, seeds=(parse_polynomial("t1"),))
        verdict = tensor_irreducibility_probe([(2, 1, 0), (3, 1, 1)], cfg)
        assert verdict.verdict == "ProperInvariantWindow"
        assert verdict.dim == 12  # exponents with t1-part >= 1: 3 * 4
        assert verdict.certificate == "invariant-certified"

    def test_window_over_budget_rejected(self):
        # four factors are admitted; 17^4 window monomials are over the budget
        with pytest.raises(WindowBudgetError):
            tensor_irreducibility_probe([(2, 1, 1)] * 4, ProbeConfig(max_degree=16))


class TestCenterReport:
    def test_negative_integer_q_has_extra_central_element(self):
        report = center_report(BlockHat(-3), IndexBox((-4, 4), (0, 4)))
        names = {name for name, central, _ in report.declared}
        assert names == {"C", "L(0,3)"}
        assert report.ok

    def test_generic_q_has_only_c(self):
        report = center_report(BlockHat(scalar("1/2")), IndexBox((-4, 4), (0, 4)))
        assert [name for name, _, _ in report.declared] == ["C"]
        assert report.ok
        assert report.extra_commuting == []

    def test_loop_center_is_all_c(self):
        report = center_report(LOOP, IndexBox((-2, 2), (-2, 2)))
        names = {name for name, central, _ in report.declared}
        assert names == {f"C({j})" for j in range(-2, 3)}
        assert report.ok and report.extra_commuting == []

    def test_truncated_block_declares_l0_minus_q(self):
        # [L(0,1), L(n,j)] = n(-1 + q) L(n, j+1) = 0 at q = -1: central, not a window artifact
        report = center_report(BlockTrunc(-1, 0, 2), IndexBox((-2, 2), (-2, 2)))
        assert [name for name, _, _ in report.declared] == ["L(0,1)"]
        assert report.ok and report.extra_commuting == []

    @pytest.mark.parametrize(
        "q,k,l",
        [(-1, 0, 2), (-1, 0, 1), (-1, 1, 2), (-2, 1, 3), (-2, 2, 4), (1, 1, 3), ("1/2", 0, 2), (-3, 0, 2)],
    )
    def test_truncated_block_declares_exactly_the_central_symbols(self, q, k, l):
        # a non-central symbol has a witness L(n, j) with |n| <= 2 and k <= j <= l
        alg = BlockTrunc(scalar(q), k, l)
        box, wide = IndexBox((-2, 2), (0, l)), IndexBox((-4, 4), (0, l))
        declared = set(alg.declared_central(box))
        for sym in alg.symbols_in_box(box):
            assert (sym in declared) == centrality_check(alg, sym, wide).central, sym
        report = center_report(alg, box)
        assert report.ok and report.extra_commuting == []


class UndeclaredVirasoro(Virasoro):
    """Virasoro that declares nothing central, so C is decided by the scan."""

    def declared_central(self, box):
        return []


class CancellingVirasoro(UndeclaredVirasoro):
    """[C, y] comes back as L(1) - L(1): two terms on one symbol that cancel."""

    def bracket_pairs(self, x, y):
        if x == C():
            return ((L(1), ONE), (L(1), -ONE))
        return super().bracket_pairs(x, y)


class ZeroTermVirasoro(UndeclaredVirasoro):
    """[C, y] comes back as 0*L(1): one term with a zero coefficient."""

    def bracket_pairs(self, x, y):
        if x == C():
            return ((L(1), ZERO),)
        return super().bracket_pairs(x, y)


class DoublingVirasoro(UndeclaredVirasoro):
    """[C, L(0)] comes back as L(1) + L(1): two terms on one symbol that add up."""

    def bracket_pairs(self, x, y):
        if x == C():
            return ((L(1), ONE), (L(1), ONE)) if y == L(0) else ()
        return super().bracket_pairs(x, y)


def _centre_cases():
    box = IndexBox((-3, 3), (0, 3))
    cases = [
        ("virasoro", VIRASORO, IndexBox((-3, 3))),
        ("virasoro undeclared", UndeclaredVirasoro(), IndexBox((-3, 3))),
        ("loop", LOOP, IndexBox((-2, 2), (-2, 2))),
        # one column of first indices: its L symbols commute with the box
        ("virasoro i=0", VIRASORO, IndexBox((0, 0))),
        ("loop i=0", LOOP, IndexBox((0, 0), (-2, 2))),
        ("block-hat q=1/2 m=0", BlockHat(scalar("1/2")), IndexBox((0, 0), (0, 3))),
    ]
    for q in GRID_Q + tuple(scalar(g) for g in GAUSSIAN_Q):
        cases += [
            (f"block-hat q={q}", BlockHat(q), box),
            (f"block q={q}", Block(q), box),
            (f"block-trunc q={q} k=0 l=1", BlockTrunc(q, 0, 1), box),
            (f"block-trunc q={q} k=1 l=3", BlockTrunc(q, 1, 3), box),
        ]
    return cases


CENTRE_CASES = _centre_cases()


def assert_scan_agrees(algebra, box):
    """center_report says of every box symbol what centrality_check says."""
    report = center_report(algebra, box)
    declared = algebra.declared_central(box)
    expected = []
    for sym in declared:
        res = centrality_check(algebra, sym, box)
        expected.append((str(sym), res.central, res.witness))
    assert report.declared == expected
    assert report.extra_commuting == [
        str(sym)
        for sym in algebra.symbols_in_box(box)
        if sym not in declared and centrality_check(algebra, sym, box).central
    ]
    return report


class TestCentreScan:
    @pytest.mark.parametrize(
        "algebra,box", [c[1:] for c in CENTRE_CASES], ids=[c[0] for c in CENTRE_CASES]
    )
    def test_agrees_with_centrality_check(self, algebra, box):
        assert_scan_agrees(algebra, box)

    @pytest.mark.parametrize("algebra,commutes", [
        (UndeclaredVirasoro(), True),
        (CancellingVirasoro(), True),
        (ZeroTermVirasoro(), True),
        (DoublingVirasoro(), False),
    ], ids=["plain", "cancelling", "zero-term", "doubling"])
    def test_terms_are_summed_per_symbol(self, algebra, commutes):
        report = assert_scan_agrees(algebra, IndexBox((-3, 3)))
        assert report.declared == []
        assert ("C" in report.extra_commuting) == commutes


class TestProbeGuards:
    def test_round_budget_guard(self):
        from cartanfree.errors import MaxRoundsExceededError

        spec = OmegaLoop(2, 3, 1)
        gens = spanning_symbols(spec, spec.algebra.symbols_in_box(ProbeConfig().box))
        with pytest.raises(MaxRoundsExceededError):
            window = VectorWindow(4)
            _closure(P_ONE, gens, _OperatorColumns(spec, window).image, window, 1)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            simplicity_probe(OmegaLoop(2, 3, 1), ProbeConfig(seeds=("0",)))
        with pytest.raises(ValueError):
            ProbeConfig(seeds=())

    def test_seed_beyond_window_rejected(self):
        from cartanfree.errors import DegreeOverflowError

        with pytest.raises(DegreeOverflowError):
            simplicity_probe(OmegaLoop(2, 3, 1), ProbeConfig(max_degree=2, seeds=("t^3",)))

    @pytest.mark.parametrize(
        "spec,D,seeds,last_failing",
        [
            (OmegaLoop(2, 3, 1), 12, (P_ONE,), 11),
            (OmegaLoop(2, 3, 0), 12, (T,), 11),
            (TensorOmega([(2, 1, 1), (2, 3, 1)]), 4, (P_ONE,), 7),
            (TensorOmega([(2, 1, 1), (2, 1, 1)]), 4, (P_ONE,), 4),
        ],
    )
    def test_round_count_is_kept(self, spec, D, seeds, last_failing):
        # closing under a spanning subset and acting only on new inside rows
        # leaves each round's staged span, hence the number of rounds, unchanged
        from cartanfree.errors import MaxRoundsExceededError

        window = VectorWindow(D, spec.nvars)
        gens = spanning_symbols(spec, spec.algebra.symbols_in_box(ProbeConfig().box))
        (seed,) = (spec.vector(s) for s in seeds)
        with pytest.raises(MaxRoundsExceededError):
            _closure(seed, gens, _OperatorColumns(spec, window).image, window, last_failing)
        assert _closure(seed, gens, _OperatorColumns(spec, window).image, window, last_failing + 1).rank


class TestWindowBoundsDegrees:
    """A probe's window, not the global degree cap (64), bounds its arithmetic."""

    def test_probe_window_above_the_cap(self):
        verdict = simplicity_probe(OmegaLoop(2, 1, 1), ProbeConfig(max_degree=70, seeds=(P_ONE, T)))
        assert verdict.verdict == "FillsWindow" and verdict.dim == 71
        verdict = simplicity_probe(OmegaLoop(2, 1, 0), ProbeConfig(max_degree=70, seeds=(T,)))
        assert verdict.dim == 70 and verdict.witness == "1"
        assert verdict.certificate == "invariant-certified"

    def test_composition_window_above_the_cap(self):
        report = composition_series_check(2, 3, IndexBox((-1, 1), (-1, 1)), 70)
        assert report.ok

    def test_literals_keep_the_cap(self):
        from cartanfree.errors import DegreeOverflowError

        with pytest.raises(DegreeOverflowError, match="polynomial degree cap 64"):
            simplicity_probe(OmegaLoop(2, 1, 1), ProbeConfig(max_degree=70, seeds=("t^70",)))
