"""The module-axiom sweep through class representatives against the direct sweep.

`module_axiom_check` applies nested actions only to pairs of operator-class
representatives and decides each identity by one integer residual.  These
tests run the direct sweep (every nested x.(y.f) with `act_basis`, every
identity compared as polynomials) next to it and require the same
`pairs_checked`, `identities_checked` and violation list, in order, on the
criterion-2 grids, on tensor products with one, two and three
representatives per class, and on broken specs: a broken entry (on a class
member, on a representative, in one tensor factor) and a broken but linear
`act_basis` on one symbol, which the audit must demote to a representative
of its own.  A non-linear `act_basis` is outside the bilinearity argument:
once a representative maps 0 to a nonzero vector, every symbol acts on its
own, and the sweep must list every violation the direct sweep lists.
"""

import pytest

import cartanfree.analysis as analysis
from cartanfree import (
    C,
    IndexBox,
    L,
    MultiPolynomial,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ONE,
    T,
    TensorOmega,
    constant,
    module_axiom_check,
    monomial,
    parse_polynomial,
    scalar,
)
from cartanfree.analysis import GRID_ALPHA, GRID_BETA, GRID_LAMBDA_MU, GRID_Q

BOX2_VIR = IndexBox((-2, 2))
BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))
BOX1_LOOP = IndexBox((-1, 1), (-1, 1))
TEST_POLYS = (P_ONE, T, monomial(2), parse_polynomial("t^3 - t"))
TENSOR_POLYS = (
    MultiPolynomial.constant(2, 1),
    parse_polynomial("t1"),
    parse_polynomial("t1^2 + t2"),
    parse_polynomial("t1*t2"),
)
TENSOR3_POLYS = (MultiPolynomial.constant(3, 1), parse_polynomial("t1*t3 + t2"), parse_polynomial("t2^2"))
Q_BLOCK = tuple(q for q in GRID_Q if q != -1)


def direct_sweep(spec, box, polys):
    """The direct sweep: every nested action applied, every identity compared as polynomials.

    Returns (pairs_checked, identities_checked, violations).
    """
    vectors = [spec.vector(f) for f in polys]
    syms = spec.algebra.symbols_in_box(box)
    act = spec.act_basis
    cache = {}

    def single(s, k):
        if (s, k) not in cache:
            cache[s, k] = act(s, vectors[k])
        return cache[s, k]

    pairs_checked = identities_checked = 0
    violations = []
    for a, x in enumerate(syms):
        for y in syms[a + 1:]:
            pairs = spec.algebra.bracket_pairs(x, y)
            pairs_checked += 1
            for k, f in enumerate(vectors):
                identities_checked += 1
                rhs = act(x, single(y, k)) - act(y, single(x, k))
                lhs = None
                for s, c in pairs:
                    term = single(s, k) * c
                    lhs = term if lhs is None else lhs + term
                if lhs is None:
                    if rhs:
                        violations.append(f"[{x},{y}].{f} = 0 but commutator gives {rhs}")
                elif lhs != rhs:
                    violations.append(f"[{x},{y}].{f}: bracket action {lhs} != commutator {rhs}")
    return pairs_checked, identities_checked, violations


def assert_same_as_direct(spec, box, polys):
    report = module_axiom_check(spec, box, polys)
    got = (report.pairs_checked, report.identities_checked, report.violations)
    assert got == direct_sweep(spec, box, polys)
    return report


# -- criterion-2 grids ------------------------------------------------------------


@pytest.mark.parametrize("lam", GRID_LAMBDA_MU, ids=str)
def test_virasoro_grid(lam):
    for alpha in GRID_ALPHA:
        assert assert_same_as_direct(OmegaVir(lam, alpha), BOX2_VIR, TEST_POLYS).ok


@pytest.mark.parametrize("lam", GRID_LAMBDA_MU, ids=str)
def test_loop_grid(lam):
    for mu in GRID_LAMBDA_MU:
        for alpha in GRID_ALPHA:
            report = assert_same_as_direct(OmegaLoop(lam, mu, alpha), BOX2_LOOP, TEST_POLYS)
            assert report.ok and report.representatives == 5  # one class per first index


@pytest.mark.parametrize("q", Q_BLOCK, ids=str)
def test_block_grid(q):
    for lam in GRID_LAMBDA_MU:
        for alpha in GRID_ALPHA:
            assert assert_same_as_direct(OmegaBlock(q, lam, alpha), BOX2_BLOCK, TEST_POLYS).ok


@pytest.mark.parametrize("beta", GRID_BETA, ids=str)
def test_block_hv_grid(beta):
    for lam in GRID_LAMBDA_MU:
        for alpha in GRID_ALPHA:
            report = assert_same_as_direct(OmegaBlockHV(lam, alpha, beta), BOX2_BLOCK, TEST_POLYS)
            assert report.ok and report.representatives == (10 if beta else 5)


# -- tensor products --------------------------------------------------------------


@pytest.mark.parametrize(
    "factors,box,polys,reps",
    [
        ([(2, 1, 1), (2, 1, 0)], BOX2_LOOP, TENSOR_POLYS, 5),  # one (lambda, mu): one per class
        ([(scalar("1i"), 2, 1), (scalar("1i"), 2, 1)], BOX1_LOOP, TENSOR_POLYS, 3),
        ([(2, 1, 1), (3, 1, 1)], BOX2_LOOP, TENSOR_POLYS, 10),  # distinct pairs: two per class
        ([(scalar("1/2"), -1, 2), (scalar("3/2"), 1, 1)], BOX1_LOOP, TENSOR_POLYS, 6),
        ([(2, 1, 1), (2, 1, 0), (2, 1, 2)], BOX1_LOOP, TENSOR3_POLYS, 3),
        ([(2, 1, 1), (2, 3, 1), (2, 1, 0)], BOX1_LOOP, TENSOR3_POLYS, 6),
        ([(2, 1, 1), (3, 1, 0), (scalar("1i"), 2, 1)], BOX1_LOOP, TENSOR3_POLYS, 9),  # three per class
    ],
    ids=["2-repeated", "2-repeated-gaussian", "2-distinct", "2-distinct-rational", "3-repeated", "3-two-pairs", "3-distinct"],
)
def test_tensor_products(factors, box, polys, reps):
    report = assert_same_as_direct(TensorOmega(factors), box, polys)
    assert report.ok and report.representatives == reps


@pytest.mark.parametrize(
    "base,args,box,polys",
    [
        (OmegaLoop, (2, 3, 1), BOX2_LOOP, TEST_POLYS),
        (TensorOmega, ([(2, 1, 1), (3, 1, 1)],), BOX1_LOOP, TENSOR_POLYS),
    ],
    ids=["loop", "tensor-distinct"],
)
def test_order_of_classes_and_representatives_does_not_matter(base, args, box, polys):
    # reversed classes and representatives number the representatives
    # against the box order, so most K(g, h, f) enter with g > h
    class Reversed(base):
        def operator_classes(self, syms):
            return [(reps[::-1], members) for reps, members in base.operator_classes(self, syms)[::-1]]

    assert assert_same_as_direct(Reversed(*args), box, polys).ok


# -- broken specs -----------------------------------------------------------------


def loop_with_entry(broken_sym, change):
    class Broken(OmegaLoop):
        def entry(self, sym):
            e = OmegaLoop.entry(self, sym)
            return change(e) if sym == broken_sym else e

    return Broken(2, 3, 1)


@pytest.mark.parametrize(
    "sym,change,reps",
    [
        (L(1, 1), lambda e: e * 2, 5),  # same (shift, root): stays a class member, with weight doubled
        (L(2, 1), lambda e: e + constant("1/3"), 6),  # its own (shift, root): a class of its own
        (L(1, -2), lambda e: e * scalar("1/2+1i"), 5),  # the first of its class: a representative
        (L(-1, -2), lambda e: e + T, 6),
    ],
    ids=["member-scaled", "member-offset", "representative-scaled", "representative-new-root"],
)
def test_broken_entry(sym, change, reps):
    report = assert_same_as_direct(loop_with_entry(sym, change), BOX2_LOOP, TEST_POLYS)
    assert not report.ok and report.representatives == reps


def loop_with_act_basis(broken_sym, change):
    class Broken(OmegaLoop):
        def act_basis(self, sym, f):
            image = OmegaLoop.act_basis(self, sym, f)
            return change(image, f) if sym == broken_sym else image

    return Broken(2, 3, 1)


def plus_t_times(image, f):
    # still linear in f, but no rank-one rule, and no longer commuting with
    # the other symbols of its class: x . f + t*f
    return image + T * f


def test_broken_act_basis_on_a_member_is_demoted():
    report = assert_same_as_direct(loop_with_act_basis(L(1, 1), plus_t_times), BOX2_LOOP, TEST_POLYS)
    assert not report.ok
    assert report.representatives == 6  # L(1,1) acts through its own operator


def test_broken_act_basis_on_a_representative_demotes_its_class():
    # every other L(1,j) disagrees with the broken L(1,-2) . f, so each acts on its own
    report = assert_same_as_direct(loop_with_act_basis(L(1, -2), plus_t_times), BOX2_LOOP, TEST_POLYS)
    assert not report.ok
    assert report.representatives == 9


def test_broken_act_basis_on_a_central_symbol():
    report = assert_same_as_direct(loop_with_act_basis(C(0), plus_t_times), BOX2_LOOP, TEST_POLYS)
    assert not report.ok and report.representatives == 6


@pytest.mark.parametrize("sym,reps", [(L(1, 1), 6), (L(-1, 2), 6), (L(1, -2), 9)], ids=str)
def test_demoted_symbol_acting_correctly_passes(sym, reps):
    # the rule (from a wrong entry) puts sym at a doubled weight, while its
    # act_basis is the true action: the audit demotes it (or, for the
    # representative L(1,-2), every other member of its class), and with
    # those acting through their own operators every identity holds
    true = OmegaLoop(2, 3, 1)

    class Mismatched(OmegaLoop):
        def entry(self, s):
            e = OmegaLoop.entry(self, s)
            return e * 2 if s == sym else e

        def act_basis(self, s, f):
            return true.act_basis(s, f) if s == sym else OmegaLoop.act_basis(self, s, f)

    report = assert_same_as_direct(Mismatched(2, 3, 1), BOX2_LOOP, TEST_POLYS)
    assert report.ok and report.representatives == reps


@pytest.mark.parametrize("sym", [L(1, 1), L(1, -2), C(0)], ids=str)
def test_non_linear_act_basis_reports_only_direct_messages(sym):
    # x . f + 1 is not linear in f, so bilinearity does not cover it; the
    # sweep still fails, and every message is one the direct sweep gives
    spec = loop_with_act_basis(sym, lambda image, f: image + P_ONE)
    report = module_axiom_check(spec, BOX2_LOOP, TEST_POLYS)
    direct = direct_sweep(spec, BOX2_LOOP, TEST_POLYS)
    assert not report.ok
    assert (report.pairs_checked, report.identities_checked) == direct[:2]
    assert set(report.violations) <= set(direct[2])


@pytest.mark.parametrize("sym,count", [(L(1, 1), 144), (L(1, -2), 136), (C(0), 136)], ids=str)
def test_non_linear_act_basis_lists_every_direct_violation(sym, count):
    # x . 0 = 1 != 0: a representative fails the zero check, every box
    # symbol then acts through its own operator, and the residuals compare
    # every nested action, in the direct sweep's order
    spec = loop_with_act_basis(sym, lambda image, f: image + P_ONE)
    report = assert_same_as_direct(spec, BOX2_LOOP, TEST_POLYS)
    assert len(report.violations) == count
    assert report.representatives == len(spec.algebra.symbols_in_box(BOX2_LOOP))


@pytest.mark.parametrize(
    "base,args,sym,box,count",
    [(OmegaVir, (2, 1), L(1), BOX2_VIR, 24), (OmegaBlock, (2, 3, 1), L(1, 0), BOX2_BLOCK, 64)],
    ids=["virasoro", "block"],
)
def test_non_linear_act_basis_alone_in_its_class(base, args, sym, box, count):
    # sym is the only symbol of its operator class, so no audit demotes a
    # member; the zero check on every representative still finds x . 0 = 1
    class Broken(base):
        def act_basis(self, s, f):
            image = base.act_basis(self, s, f)
            return image + P_ONE if s == sym else image

    report = assert_same_as_direct(Broken(*args), box, TEST_POLYS)
    assert len(report.violations) == count


def test_non_linear_tensor_act_basis_lists_every_direct_violation():
    class Broken(TensorOmega):
        def act_basis(self, sym, f):
            image = TensorOmega.act_basis(self, sym, f)
            return image + self.one() if sym == L(1, 0) else image

    # L(1,0) is a representative of its class, whose member L(1,1) it demotes
    report = assert_same_as_direct(Broken([(2, 1, 1), (3, 1, 1)]), BOX1_LOOP, TENSOR_POLYS)
    assert not report.ok and report.representatives == 12  # every box symbol

@pytest.mark.parametrize("factors,reps", [([(2, 1, 1), (2, 1, 0)], 6), ([(2, 1, 1), (3, 1, 1)], 10)])
def test_broken_tensor_factor(factors, reps):
    spec = TensorOmega(factors)

    class Broken(OmegaLoop):
        def entry(self, sym):
            e = OmegaLoop.entry(self, sym)
            return e * 3 if sym == L(1, 0) else e

    spec.factors[1] = Broken(*factors[1])
    report = assert_same_as_direct(spec, BOX2_LOOP, TENSOR_POLYS)
    assert not report.ok and report.representatives == reps


# -- cost and observability ---------------------------------------------------------


def test_act_basis_calls_are_pinned():
    calls = []

    class Counted(OmegaLoop):
        def act_basis(self, sym, f):
            calls.append(sym)
            return OmegaLoop.act_basis(self, sym, f)

    report = module_axiom_check(Counted(2, 3, 1), BOX2_LOOP, TEST_POLYS)
    assert report.ok
    # 72 symbols (box and reached brackets) x 4 vectors, 2 x 10 representative
    # pairs x 4, and the 5 representatives applied to 0
    assert len(calls) == report.applications == 373
    assert report.representatives == 5
    assert report.as_dict()["applications"] == 373
    assert report.as_dict()["representatives"] == 5


def test_report_keeps_its_summary():
    report = module_axiom_check(OmegaLoop(2, 3, 1), BOX2_LOOP, TEST_POLYS)
    assert report.summary() == (
        "module axioms for {'family': 'omega-loop', 'lambda': '2', 'mu': '3', 'alpha': '1'}: "
        "435 pairs x 4 vectors -> PASS"
    )


def test_residual_and_direct_paths_must_agree(monkeypatch):
    # a residual that flags a true identity is a defect of the sweep, never a verdict
    monkeypatch.setattr(analysis, "_failing", lambda terms: [0])
    with pytest.raises(RuntimeError, match="direct recomputation finds no violation"):
        module_axiom_check(OmegaLoop(2, 3, 1), BOX1_LOOP, TEST_POLYS)
