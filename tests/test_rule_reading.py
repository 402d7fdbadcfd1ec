"""``ModuleSpec._rule`` read off the entry's integer numerators.

For every box symbol of the grid families, the (shift, root, lead) that
``_rule`` reads straight from the integer storage of x . 1 must equal the
scalar reading: ``_shift_amount`` and ``_read_linear(entry(sym))``, or the
constant term with root None for a constant entry (the beta row of
Block(-1)); tensor factors with Gaussian alpha put the roots off the real
line.  Zero entries give the empty rule.  ``entry`` stays the family
primitive: an override of degree 2 still raises ``DegreeMismatchError``
through ``act_basis``.
"""

import pytest

from cartanfree import (
    IndexBox,
    L,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ONE,
    T,
    TensorOmega,
)
from cartanfree.analysis import GRID_ALPHA, GRID_BETA, GRID_LAMBDA_MU, GRID_Q
from cartanfree.errors import DegreeMismatchError
from cartanfree.modules import _read_linear, _shift_amount

SPECS = (
    [(OmegaVir(lam, a), IndexBox((-3, 3))) for lam in GRID_LAMBDA_MU for a in GRID_ALPHA]
    + [(OmegaLoop(lam, mu, a), IndexBox((-2, 2), (-2, 2))) for lam in GRID_LAMBDA_MU for mu in GRID_LAMBDA_MU for a in GRID_ALPHA]
    + [(OmegaBlock(q, lam, a), IndexBox((-2, 2), (0, 2))) for q in GRID_Q if q != -1 for lam in GRID_LAMBDA_MU for a in GRID_ALPHA]
    + [(OmegaBlockHV(lam, a, b), IndexBox((-2, 2), (0, 2))) for lam in GRID_LAMBDA_MU for a in GRID_ALPHA for b in GRID_BETA]
)


@pytest.mark.parametrize("family", ["omega-vir", "omega-loop", "omega-block", "omega-block-hv"])
def test_rule_equals_scalar_reading(family):
    seen = {"linear": 0, "constant": 0, "zero": 0}
    for spec, box in SPECS:
        if spec.family != family:
            continue
        for sym in spec.algebra.symbols_in_box(box):
            e = spec.entry(sym)
            rule = spec._rule(sym)
            if not e:
                assert rule == ()
                seen["zero"] += 1
            elif e.degree == 0:
                assert rule[:3] == (_shift_amount(spec.algebra, sym), None, e.constant_term)
                seen["constant"] += 1
            else:
                lead, root = _read_linear(e, sym)
                assert rule[:3] == (_shift_amount(spec.algebra, sym), root, lead), (spec, sym)
                seen["linear"] += 1
    assert seen["linear"] and seen["zero"]
    assert bool(seen["constant"]) == (family == "omega-block-hv")  # the beta != 0 row


def test_tensor_factor_rules():
    # Gaussian alpha gives roots off the real line, where the root's imaginary part is read
    spec = TensorOmega([("1i", "1/2", "-1/2"), (2, 1, 0), ("1+1i", 3, "2-1/3i")])
    for factor in spec.factors:
        for sym in spec.algebra.symbols_in_box(IndexBox((-2, 2), (-2, 2))):
            e = factor.entry(sym)
            if e:
                lead, root = _read_linear(e, sym)
                assert factor._rule(sym)[:3] == (_shift_amount(factor.algebra, sym), root, lead)


def test_degree_two_entry_raises_through_act_basis():
    class Quadratic(OmegaLoop):
        def entry(self, sym):
            e = OmegaLoop.entry(self, sym)
            return e * T if sym == L(1, 1) else e

    spec = Quadratic(2, 3, 1)
    assert spec.act_basis(L(1, 0), P_ONE) == OmegaLoop(2, 3, 1).act_basis(L(1, 0), P_ONE)
    with pytest.raises(DegreeMismatchError, match="L\\(1,1\\)"):
        spec.act_basis(L(1, 1), P_ONE)


def test_power_memo_is_per_instance():
    a, b = OmegaLoop(2, 3, 1), OmegaLoop(3, 2, 1)
    assert a.entry(L(2, 0)) != b.entry(L(2, 0))
    assert a._powers[("lam", 2)] == 4 and b._powers[("lam", 2)] == 9
