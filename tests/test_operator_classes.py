"""`ModuleSpec.operator_classes`: one elimination per class, read off its kernel.

On the criterion-2 grids and the seven tensor cases of the axiom-sweep
tests, the lead vectors are read here from each slot's `entry` (the
leading coefficient of x . 1, or x . 1 itself when it is constant), not
from the memoized rules, and each class is checked against them:

* every symbol of the box is listed once, as a representative or as a
  member, and both lists follow the box order;
* a symbol is a representative exactly when its lead vector is
  independent of the representatives before it in its class, which the
  Fraction rank oracle of conftest.py decides;
* sum_g w_g * lead_g equals each member's lead vector exactly, slot by
  slot, and the member acts as sum_g w_g * g on test vectors;
* the class of symbols acting as 0 has no representative and empty
  weights.
"""

import pytest

from cartanfree import (
    IndexBox,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ONE,
    T,
    TensorOmega,
    parse_polynomial,
    scalar,
)
from cartanfree.analysis import GRID_ALPHA, GRID_BETA, GRID_LAMBDA_MU, GRID_Q

from conftest import spanning_symbols

BOX2_VIR = IndexBox((-2, 2))
BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))
BOX1_LOOP = IndexBox((-1, 1), (-1, 1))
POLYS = (P_ONE, T, parse_polynomial("t^3 - t"))
TENSOR_POLYS = (P_ONE, parse_polynomial("t1^2 + t2"), parse_polynomial("t1*t2 - 3"), parse_polynomial("t1*t3 + t2"))

# the seven tensor cases of tests/test_axiom_sweep.py
TENSORS = [
    ([(2, 1, 1), (2, 1, 0)], BOX2_LOOP),
    ([(scalar("1i"), 2, 1), (scalar("1i"), 2, 1)], BOX1_LOOP),
    ([(2, 1, 1), (3, 1, 1)], BOX2_LOOP),
    ([(scalar("1/2"), -1, 2), (scalar("3/2"), 1, 1)], BOX1_LOOP),
    ([(2, 1, 1), (2, 1, 0), (2, 1, 2)], BOX1_LOOP),
    ([(2, 1, 1), (2, 3, 1), (2, 1, 0)], BOX1_LOOP),
    ([(2, 1, 1), (3, 1, 0), (scalar("1i"), 2, 1)], BOX1_LOOP),
]


def lead_vector(spec, sym):
    slots = spec.factors if isinstance(spec, TensorOmega) else [spec]
    leads = []
    for slot in slots:
        e = slot.entry(sym)
        leads.append(scalar(0) if e.is_zero else e.leading)
    return leads


def check_classes(spec, box, polys, membership_oracle):
    syms = spec.algebra.symbols_in_box(box)
    position = {s: k for k, s in enumerate(syms)}
    classes = spec.operator_classes(syms)
    listed = [s for reps, members in classes for s in reps + [x for x, _ in members]]
    assert sorted(listed, key=position.get) == syms  # each symbol exactly once
    vectors = [spec.vector(f) for f in polys]
    zero_classes = 0
    for reps, members in classes:
        assert reps == sorted(reps, key=position.get)
        assert [x for x, _ in members] == sorted((x for x, _ in members), key=position.get)
        acts_as_0 = all(not any(lead_vector(spec, s)) for s in reps + [x for x, _ in members])
        if acts_as_0:
            zero_classes += 1
            assert reps == [] and all(w == [] for _, w in members)
            continue
        # representative iff independent of the representatives before it in the class
        kept = []
        for s in sorted(reps + [x for x, _ in members], key=position.get):
            independent = not membership_oracle([lead_vector(spec, g) for g in kept], lead_vector(spec, s))
            assert (s in reps) == independent, s
            if independent:
                kept.append(s)
        for x, w in members:
            assert w and all(g in reps and c for g, c in w)
            total = [scalar(0)] * len(lead_vector(spec, x))
            for g, c in w:
                total = [a + c * b for a, b in zip(total, lead_vector(spec, g))]
            assert total == lead_vector(spec, x), x
            for f in vectors:
                image = spec.act_basis(x, f)
                combo = image.scale(0)
                for g, c in w:
                    combo = combo + spec.act_basis(g, f) * c
                assert combo == image, (x, f)
    return zero_classes


@pytest.mark.parametrize("lam", GRID_LAMBDA_MU, ids=str)
def test_virasoro_and_loop_grids(lam, membership_oracle):
    for alpha in GRID_ALPHA:
        assert check_classes(OmegaVir(lam, alpha), BOX2_VIR, POLYS, membership_oracle) == 1
        for mu in GRID_LAMBDA_MU:
            # C(j) acts as 0; each first index i is one class, with one representative
            spec = OmegaLoop(lam, mu, alpha)
            assert check_classes(spec, BOX2_LOOP, POLYS, membership_oracle) == 1
            assert spanning_symbols(spec, spec.algebra.symbols_in_box(BOX2_LOOP)) == [
                s for s in spec.algebra.symbols_in_box(BOX2_LOOP) if s[0] == "L" and s[2] == -2
            ]


@pytest.mark.parametrize("q", [q for q in GRID_Q if q != -1], ids=str)
def test_block_grid(q, membership_oracle):
    for lam in GRID_LAMBDA_MU:
        for alpha in GRID_ALPHA:
            assert check_classes(OmegaBlock(q, lam, alpha), BOX2_BLOCK, POLYS, membership_oracle) == 1


@pytest.mark.parametrize("beta", GRID_BETA, ids=str)
def test_block_hv_grid(beta, membership_oracle):
    for lam in GRID_LAMBDA_MU:
        for alpha in GRID_ALPHA:
            spec = OmegaBlockHV(lam, alpha, beta)
            assert check_classes(spec, BOX2_BLOCK, POLYS, membership_oracle) == 1


@pytest.mark.parametrize(
    "factors,box",
    TENSORS,
    ids=["2-repeated", "2-repeated-gaussian", "2-distinct", "2-distinct-rational", "3-repeated", "3-two-pairs", "3-distinct"],
)
def test_tensor_products(factors, box, membership_oracle):
    spec = TensorOmega(factors)
    polys = [f for f in TENSOR_POLYS if getattr(f, "nvars", 1) <= spec.nvars]  # spec.vector pads them
    assert check_classes(spec, box, polys, membership_oracle) == 1


def test_weights_pinned():
    # L(i,j) . 1 has lead lam^(i-j) mu^j in each slot.  Omega(2,3,1): L(1,0) has lead 2 and
    # L(1,-1) lead 4/3, so L(1,0) = 3/2 L(1,-1).  Omega(2,1,1) x Omega(3,1,1): L(1,-1), L(1,0)
    # and L(1,1) have leads (4, 9), (2, 3) and (1, 1), so L(1,1) = -1/6 L(1,-1) + 5/6 L(1,0)
    def by_first_rep(spec):
        classes = spec.operator_classes(spec.algebra.symbols_in_box(BOX1_LOOP))
        return {
            str(reps[0]) if reps else None: ([str(g) for g in reps], [(str(x), [(str(g), str(c)) for g, c in w]) for x, w in members])
            for reps, members in classes
        }

    loop = by_first_rep(OmegaLoop(2, 3, 1))
    assert loop["L(1,-1)"] == (["L(1,-1)"], [("L(1,0)", [("L(1,-1)", "3/2")]), ("L(1,1)", [("L(1,-1)", "9/4")])])
    tensor = by_first_rep(TensorOmega([(2, 1, 1), (3, 1, 1)]))
    assert tensor["L(1,-1)"] == (["L(1,-1)", "L(1,0)"], [("L(1,1)", [("L(1,-1)", "-1/6"), ("L(1,0)", "5/6")])])
    for classes in (loop, tensor):
        assert classes[None] == ([], [("C(-1)", []), ("C(0)", []), ("C(1)", [])])
