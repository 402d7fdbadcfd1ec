"""The probe picks its representatives by row insertion, with no weights.

``ModuleSpec.probe_operators`` inserts each class's lead vectors, in box
order, into one ``SpanBasis`` over the slots, and the members that grow
its rank act.  ``ModuleSpec.operator_classes`` (the axiom sweep's
grouping) takes the pivot columns of the transposed elimination, the
lead vectors independent of those before them: the same greedy choice.
These tests check that equality per class on the criterion-2 grids and on
the tensor cases of test_slot_operators.py, rebuild the probe's operator
list from ``operator_classes`` with the Fraction rank oracle of
conftest.py, and run probes with the weight solver patched to raise.
"""

import pytest

from cartanfree import (
    IndexBox,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ONE,
    ProbeConfig,
    TensorOmega,
    simplicity_probe,
    tensor_irreducibility_probe,
)
from cartanfree.analysis import GRID_ALPHA, GRID_BETA, GRID_LAMBDA_MU, GRID_Q
from cartanfree.linalg import SpanBasis
from cartanfree.modules import ModuleSpec
from cartanfree.scalars import ONE, ZERO

from conftest import oracle_rank, oracle_solvable
from test_slot_operators import CASES as TENSOR_CASES

BOX2 = IndexBox((-2, 2), (-2, 2))
BOX2_VIR = IndexBox((-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))

# (label, specs, box): each criterion-2 grid, then each tensor case on its own
CASES = [
    ("virasoro", [OmegaVir(lam, a) for lam in GRID_LAMBDA_MU for a in GRID_ALPHA], BOX2_VIR),
    ("loop", [OmegaLoop(lam, mu, a) for lam in GRID_LAMBDA_MU for mu in GRID_LAMBDA_MU for a in GRID_ALPHA], BOX2),
    (
        "block",
        [OmegaBlock(q, lam, a) for q in GRID_Q if q != -1 for lam in GRID_LAMBDA_MU for a in GRID_ALPHA],
        BOX2_BLOCK,
    ),
    (
        "block-hv",
        [OmegaBlockHV(lam, a, b) for lam in GRID_LAMBDA_MU for a in GRID_ALPHA for b in GRID_BETA],
        BOX2_BLOCK,
    ),
] + [(f"tensor-{label}", [TensorOmega(factors)], box) for label, factors, box, _ in TENSOR_CASES]
IDS = [c[0] for c in CASES]


def _oracle_greedy(cls):
    """The members of one class whose lead vector raises the Fraction-oracle rank of those before."""
    kept, rows = [], []
    for g, v in cls:
        if oracle_rank(rows + [v]) > oracle_rank(rows):
            kept.append(g)
            rows.append(v)
    return kept


def _reference_operators(spec, syms):
    """The probe's operator list, rebuilt from ``operator_classes``' representatives by the oracle."""
    n = len(spec._slots())
    leads = {g: v for cls in spec._classes(syms) for g, v in cls}
    unit = [[ONE if k == s else ZERO for k in range(n)] for s in range(n)]
    out = []
    for reps, _ in spec.operator_classes(syms):
        rows = [leads[g] for g in reps]
        apart = [s for s in range(n) if rows and oracle_solvable(rows, unit[s])]
        out += [(next(g for g in reps if leads[g][s]), (s,)) for s in apart]
        if len(apart) < len(reps):
            others = tuple(s for s in range(n) if s not in apart) if apart else None
            span = [unit[s] for s in apart]
            for g in reps:
                if not oracle_solvable(span, leads[g]):
                    out.append((g, others))
                    span.append(leads[g])
    return out


@pytest.mark.parametrize("label,specs,box", CASES, ids=IDS)
def test_greedy_representatives_are_the_pivot_representatives(label, specs, box):
    for spec in specs:
        syms = spec.algebra.symbols_in_box(box)
        classes = spec._classes(syms)
        pivots = [reps for reps, _ in spec.operator_classes(syms)]
        assert len(classes) == len(pivots), spec
        assert sorted(g for cls in classes for g, _ in cls) == sorted(syms), spec
        for cls, reps in zip(classes, pivots):
            span = SpanBasis(len(spec._slots()))
            assert [g for g, v in cls if span.insert(v)] == reps, spec
            assert _oracle_greedy(cls) == reps, spec


@pytest.mark.parametrize("label,specs,box", CASES, ids=IDS)
def test_operators_match_the_pivot_reference(label, specs, box):
    for spec in specs:
        syms = spec.algebra.symbols_in_box(box)
        assert spec.probe_operators(syms) == _reference_operators(spec, syms), spec


# (spec, config, summary, seed_dims, stats) as computed with the weight solver in place
PROBES = [
    (
        OmegaLoop(2, 3, 1),
        ProbeConfig(box=BOX2, max_degree=6),
        "FillsWindow(7) - affirmative evidence at this window",
        {"1": 7, "t": 7, "t^2 + 1": 7, "t^3 - t": 7},
        {"operators": {"count": 5, "one_slot": 5}, "adopted": {"t": "1", "t^2 + 1": "1", "t^3 - t": "1"}},
    ),
    (
        OmegaLoop(2, 3, 0),
        ProbeConfig(box=BOX2, max_degree=6),
        "ProperInvariantWindow(6 of 7); missing coset witness 1; certified proper invariant subspace",
        {"1": 7, "t": 6, "t^2 + 1": 7, "t^3 - t": 6},
        {"operators": {"count": 5, "one_slot": 5}, "adopted": {"t^2 + 1": "1", "t^3 - t": "t"}},
    ),
    (
        OmegaBlockHV(2, 0, 0),
        ProbeConfig(box=BOX2_BLOCK, max_degree=6),
        "ProperInvariantWindow(6 of 7); missing coset witness 1; certified proper invariant subspace",
        {"1": 7, "t": 6, "t^2 + 1": 7, "t^3 - t": 6},
        {"operators": {"count": 5, "one_slot": 5}, "adopted": {"t^2 + 1": "1", "t^3 - t": "t"}},
    ),
    (
        TensorOmega([(2, 1, 1), (3, 1, 1)]),
        ProbeConfig(box=BOX2, max_degree=3, seeds=(P_ONE,)),
        "FillsWindow(16) - affirmative evidence at this window",
        {"1": 16},
        {"operators": {"count": 10, "one_slot": 10}, "adopted": {}},
    ),
    (
        TensorOmega([(2, 1, 1), (2, 1, 1)]),
        ProbeConfig(box=BOX2, max_degree=3, seeds=(P_ONE,)),
        "ProperInvariantWindow(4 of 16); missing coset witness t2; window-level evidence only",
        {"1": 4},
        {"operators": {"count": 5, "one_slot": 0}, "adopted": {}},
    ),
    (
        TensorOmega([(2, 1, 1), (2, 3, 1), (2, 1, 0)]),
        ProbeConfig(box=IndexBox((-1, 1), (-1, 1)), max_degree=2, seeds=(P_ONE,)),
        "ProperInvariantWindow(9 of 27); missing coset witness t3; window-level evidence only",
        {"1": 9},
        {"operators": {"count": 6, "one_slot": 3}, "adopted": {}},
    ),
]


@pytest.mark.parametrize(
    "spec,cfg,summary,seed_dims,stats",
    PROBES,
    ids=["loop", "loop-alpha0", "block-hv-alpha0", "tensor-distinct", "tensor-repeated", "tensor-three-two-equal"],
)
def test_probe_solves_no_weights(monkeypatch, spec, cfg, summary, seed_dims, stats):
    def refuse(*args, **kwargs):
        raise AssertionError("a probe solves no class weights")

    monkeypatch.setattr(SpanBasis, "kernel", refuse)
    monkeypatch.setattr(ModuleSpec, "operator_classes", refuse)
    probe = tensor_irreducibility_probe if isinstance(spec, TensorOmega) else simplicity_probe
    verdict = probe(spec, cfg)
    assert (verdict.summary(), verdict.seed_dims, verdict.stats) == (summary, seed_dims, stats)
