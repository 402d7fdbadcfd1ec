"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Each test prints a single `ACCEPTANCE <n> <name>: PASS (<seconds>)` line
(visible with ``pytest -s`` or in the captured output).  Runtime budgets
are asserted where a criterion states one.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager

from cartanfree import (
    Block,
    BlockHat,
    BlockTrunc,
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
    ProbeConfig,
    T,
    TensorOmega,
    VIRASORO,
    bracket_basis,
    build_action_table,
    center_report,
    composition_series_check,
    derive_parameters,
    isomorphism_classify,
    jacobi_check,
    module_axiom_check,
    monomial,
    parse_polynomial,
    scalar,
    simplicity_probe,
    tensor_irreducibility_probe,
    virasoro_embedding_check,
)
from cartanfree.analysis import (
    DEFAULT_SEEDS,
    GRID_ALPHA,
    GRID_BETA,
    GRID_LAMBDA_MU,
    GRID_Q,
)

BOX3_VIR = IndexBox((-3, 3))
BOX3_LOOP = IndexBox((-3, 3), (-3, 3))
BOX3_BLOCK = IndexBox((-3, 3), (0, 3))
BOX2_VIR = IndexBox((-2, 2))
BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))
TEST_POLYS = (P_ONE, T, monomial(2), parse_polynomial("t^3 - t"))


@contextmanager
def criterion(number: int, name: str, budget_seconds: float | None = None):
    start = time.time()
    yield
    elapsed = time.time() - start
    print(f"\nACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
        )


def test_criterion_01_jacobi_suite():
    with criterion(1, "jacobi-suite", budget_seconds=10):
        report = jacobi_check(VIRASORO, BOX3_VIR)
        assert report.ok
        report = jacobi_check(LOOP, BOX3_LOOP)
        assert report.ok
        for q in GRID_Q:
            for algebra in (BlockHat(q), Block(q)):
                report = jacobi_check(algebra, BOX3_BLOCK)
                assert report.ok, f"{algebra.describe()}: {report.violations[:1]}"
            for k, l in ((0, 1), (1, 3)):
                report = jacobi_check(BlockTrunc(q, k, l), BOX3_BLOCK)
                assert report.ok


def test_criterion_02_module_axiom_suite():
    with criterion(2, "module-axiom-suite", budget_seconds=30):
        for lam in GRID_LAMBDA_MU:
            for alpha in GRID_ALPHA:
                assert module_axiom_check(OmegaVir(lam, alpha), BOX2_VIR, TEST_POLYS).ok
        for lam in GRID_LAMBDA_MU:
            for mu in GRID_LAMBDA_MU:
                for alpha in GRID_ALPHA:
                    assert module_axiom_check(
                        OmegaLoop(lam, mu, alpha), BOX2_LOOP, TEST_POLYS
                    ).ok
        for q in GRID_Q:
            if q == -1:
                continue
            for lam in GRID_LAMBDA_MU:
                for alpha in GRID_ALPHA:
                    assert module_axiom_check(
                        OmegaBlock(q, lam, alpha), BOX2_BLOCK, TEST_POLYS
                    ).ok
        for lam in GRID_LAMBDA_MU:
            for alpha in GRID_ALPHA:
                for beta in GRID_BETA:
                    assert module_axiom_check(
                        OmegaBlockHV(lam, alpha, beta), BOX2_BLOCK, TEST_POLYS
                    ).ok
        # tensor factors: representative pairs covering alpha = 0 and Gaussian lambda
        tensor_polys = (
            MultiPolynomial.constant(2, 1),
            parse_polynomial("t1"),
            parse_polynomial("t1^2 + t2"),
            parse_polynomial("t1*t2"),
        )
        for factors in (
            [(2, 1, 1), (3, 1, 1)],
            [(2, 3, 0), (3, 2, 1)],
            [(scalar("1i"), 1, 1), (2, scalar("1/2"), 0)],
            [(scalar("1/2"), scalar("-1"), 2), (scalar("3/2"), 1, 1)],
        ):
            assert module_axiom_check(
                TensorOmega(factors), IndexBox((-1, 1), (-1, 1)), tensor_polys
            ).ok


def test_criterion_03_bracket_spot_identities():
    with criterion(3, "bracket-spot-identities"):
        # [L(2,j), L(-2,0)] = -4 L(0,j) + 1/2 C(j)
        for j in range(-3, 4):
            out = bracket_basis(LOOP, L(2, j), L(-2, 0))
            assert out.terms == {L(0, j): scalar(-4), C(j): scalar("1/2")}
        # the Virasoro central element commutes with everything in the box
        for i in range(-3, 4):
            assert bracket_basis(VIRASORO, L(i), C()).is_zero
        # the zero-graded piece of the loop algebra is abelian
        for j in range(-3, 4):
            for l in range(-3, 4):
                assert bracket_basis(LOOP, L(0, j), L(0, l)).is_zero
                assert bracket_basis(LOOP, L(0, j), C(l)).is_zero


def test_criterion_04_loop_simplicity_grid():
    with criterion(4, "loop-simplicity-grid", budget_seconds=60):
        cfg = ProbeConfig(box=BOX2_LOOP, max_degree=4, seeds=DEFAULT_SEEDS)
        for lam in GRID_LAMBDA_MU:
            for mu in GRID_LAMBDA_MU:
                for alpha in GRID_ALPHA:
                    verdict = simplicity_probe(OmegaLoop(lam, mu, alpha), cfg)
                    if alpha == 0:
                        # the closure from seed t must be exactly the
                        # zero-constant-term slice of the window
                        assert verdict.verdict == "ProperInvariantWindow"
                        assert verdict.dim == 4
                        assert verdict.seed_dims["t"] == 4
                        assert verdict.certificate == "invariant-certified"
                        assert verdict.witness == "1"
                    else:
                        assert verdict.verdict == "FillsWindow", (lam, mu, alpha)
                        assert verdict.dim == 5


def test_criterion_05_block_simplicity_grid():
    with criterion(5, "block-simplicity-grid", budget_seconds=60):
        cfg = ProbeConfig(box=BOX2_BLOCK, max_degree=4, seeds=DEFAULT_SEEDS)
        for q in GRID_Q:
            if q == -1:
                continue
            for lam in GRID_LAMBDA_MU:
                for alpha in GRID_ALPHA:
                    verdict = simplicity_probe(OmegaBlock(q, lam, alpha), cfg)
                    if alpha == 0:
                        assert verdict.verdict == "ProperInvariantWindow", (q, lam)
                        assert verdict.seed_dims["t"] == 4
                        assert verdict.certificate == "invariant-certified"
                    else:
                        assert verdict.verdict == "FillsWindow", (q, lam, alpha)
        for lam in GRID_LAMBDA_MU:
            for alpha in GRID_ALPHA:
                for beta in GRID_BETA:
                    verdict = simplicity_probe(OmegaBlockHV(lam, alpha, beta), cfg)
                    if alpha == 0 and beta == 0:
                        assert verdict.verdict == "ProperInvariantWindow"
                        assert verdict.seed_dims["t"] == 4
                        assert verdict.certificate == "invariant-certified"
                    else:
                        assert verdict.verdict == "FillsWindow", (lam, alpha, beta)


def test_criterion_06_composition_series():
    with criterion(6, "composition-series"):
        for lam in GRID_LAMBDA_MU:
            for mu in GRID_LAMBDA_MU:
                report = composition_series_check(lam, mu, BOX2_LOOP, 4)
                assert report.invariance_ok, (lam, mu, report.detail)
                assert report.trivial_quotient_ok, (lam, mu, report.detail)
                assert report.intertwiner_ok, (lam, mu, report.detail)


def test_criterion_07_classification_round_trip():
    with criterion(7, "classification-round-trip"):
        for lam in GRID_LAMBDA_MU:
            for mu in GRID_LAMBDA_MU:
                for alpha in GRID_ALPHA:
                    spec = OmegaLoop(lam, mu, alpha)
                    deriv = derive_parameters(build_action_table(spec, BOX2_LOOP))
                    assert deriv.ok and deriv.params == spec.params()
        # block families round-trip as well
        for q in (scalar(2), scalar("-3/2")):
            spec = OmegaBlock(q, scalar("1/2"), scalar(1))
            deriv = derive_parameters(build_action_table(spec, BOX2_BLOCK))
            assert deriv.ok and deriv.params == spec.params()
        for beta in GRID_BETA:
            spec = OmegaBlockHV(scalar(2), scalar("-1/2"), beta)
            deriv = derive_parameters(build_action_table(spec, BOX2_BLOCK))
            assert deriv.ok and deriv.params == spec.params()
        # perturbation directions: the classifier must name the changed
        # parameter, five base points per direction
        bases = [
            (scalar(2), scalar(3), scalar(1)),
            (scalar("1/2"), scalar(2), scalar(-1)),
            (scalar("1i"), scalar(1), scalar(2)),
            (scalar(-1), scalar("1/2"), scalar(1)),
            (scalar(2), scalar("1i"), scalar("-1/2")),
        ]
        for lam, mu, alpha in bases:
            base = build_action_table(OmegaLoop(lam, mu, alpha), BOX2_LOOP)
            for name, other in (
                ("lambda", OmegaLoop(lam * 2, mu, alpha)),
                ("mu", OmegaLoop(lam, mu * 2, alpha)),
                ("alpha", OmegaLoop(lam, mu, alpha + 1)),
            ):
                res = isomorphism_classify(base, build_action_table(other, BOX2_LOOP))
                assert not res.isomorphic
                assert res.differing == name, (name, res.reason)


def test_criterion_08_tensor_evidence():
    with criterion(8, "tensor-evidence", budget_seconds=120):
        cfg2 = ProbeConfig(box=BOX2_LOOP, max_degree=3, seeds=(P_ONE,))
        verdict = tensor_irreducibility_probe([(2, 1, 1), (3, 1, 1)], cfg2)
        assert verdict.verdict == "FillsWindow" and verdict.dim == 16
        cfg3 = ProbeConfig(box=BOX2_LOOP, max_degree=2, seeds=(P_ONE,))
        verdict = tensor_irreducibility_probe(
            [(2, 1, 1), (3, 1, 1), (scalar("1/2"), 1, 1)], cfg3
        )
        assert verdict.verdict == "FillsWindow" and verdict.dim == 27
        # m = 1 agrees with the single-factor probe of criterion 4
        cfg1 = ProbeConfig(box=BOX2_LOOP, max_degree=4, seeds=DEFAULT_SEEDS)
        for lam, mu, alpha in ((2, 3, 1), (2, 3, 0), (scalar("1/2"), scalar("1i"), 2)):
            single = simplicity_probe(OmegaLoop(lam, mu, alpha), cfg1)
            tensor = tensor_irreducibility_probe([(lam, mu, alpha)], cfg1)
            assert single.verdict == tensor.verdict
            assert single.dim == tensor.dim


def test_criterion_09_center_and_embedding():
    with criterion(9, "center-and-embedding"):
        box = IndexBox((-4, 4), (0, 4))
        expectations = {
            "-1": {"C", "L(0,1)"},
            "-3": {"C", "L(0,3)"},
            "1/2": {"C"},
            "2": {"C"},
        }
        for q_text, expected in expectations.items():
            q = scalar(q_text)
            report = center_report(BlockHat(q), box)
            assert report.ok, report.summary()
            assert {name for name, _, _ in report.declared} == expected
            emb = virasoro_embedding_check(q, IndexBox((-4, 4)))
            assert emb.ok and emb.pairs_checked == 55


def test_criterion_10_exclusion_invariant():
    with criterion(10, "exclusion-invariant"):
        rng = random.Random(20260810)
        q_pool = [scalar(f"-{n}/2") for n in range(1, 9)]  # -2q in 1..8
        evaluations = 0
        while evaluations < 10_000:
            q = rng.choice(q_pool)
            algebra = Block(q)
            m, n = rng.randint(-10, 10), rng.randint(-10, 10)
            i, j = rng.randint(0, 8), rng.randint(0, 8)
            x, y = L(m, i), L(n, j)
            if algebra.excluded in (x, y):
                continue
            out = algebra.bracket_pairs(x, y)
            assert all(sym != algebra.excluded for sym, _ in out)
            evaluations += 1
