"""A probe acts with slot-separated operators; this must be exact.

``ModuleSpec.probe_operators`` reads the operators off the operator
classes: a slot whose unit vector lies in its class's lead span is acted
on alone, by one representative in that one slot, and the class's other
representatives act in the remaining slots (every slot when none
separates).  These tests check that the window closure under those
operators equals the closure under all box symbols (same canonical rows
and pivots), pin the operator counts of distinct, repeated and partly
repeated (lambda, mu) pairs, and check that every one-slot column lies on
its monomial's slot line and that a generator's one-slot columns add up
to its whole column.
"""

from fractions import Fraction

import pytest

from cartanfree import IndexBox, OmegaLoop, TensorOmega, parse_polynomial, scalar
from cartanfree.analysis import _OperatorColumns, _closure
from cartanfree.linalg import VectorWindow

from conftest import spanning_symbols

BOX2 = IndexBox((-2, 2), (-2, 2))
BOX1 = IndexBox((-1, 1), (-1, 1))
SEEDS = ("1", "t1", "t1*t2 + 1")

# (label, factors, box, window degree)
CASES = [
    ("two-distinct", [(2, 1, 1), (3, 1, 1)], BOX2, 3),
    ("three-distinct", [(2, 1, 1), (3, 1, 1), (2, 3, 2)], BOX1, 2),
    ("two-repeated", [(2, 1, 1), (2, 1, 1)], BOX2, 3),
    ("three-two-equal", [(2, 1, 1), (2, 3, 1), (2, 1, 0)], BOX1, 2),  # mixed operators
    ("equal-ratio", [(2, 1, 1), (4, 2, 1)], BOX2, 3),  # mu/lambda equal: class rank 1 < 2
    ("gaussian", [("1i", 2, 1), ("1+1i", "1/2", "-1/2")], BOX2, 3),
    ("alpha0-both", [(2, 1, 0), (3, 1, 0)], BOX2, 3),
    ("alpha0-one", [(2, 1, 0), (-2, 1, 1)], BOX2, 3),
    ("three-alpha0", [(2, 1, 0), ("1/2", 2, 0), ("1i", 1, 1)], BOX1, 2),
]
IDS = [c[0] for c in CASES]


def _operators(factors, box):
    spec = TensorOmega(factors)
    return spec, spec.probe_operators(spec.algebra.symbols_in_box(box))


@pytest.mark.parametrize("label,factors,box,D", CASES, ids=IDS)
def test_closure_under_operators_equals_closure_under_all(label, factors, box, D):
    spec, ops = _operators(factors, box)
    syms = spec.algebra.symbols_in_box(box)
    window = VectorWindow(D, spec.nvars)
    for text in SEEDS:
        seed = spec.vector(parse_polynomial(text))
        full = _closure(seed, syms, _OperatorColumns(spec, window).image, window)
        sep = _closure(seed, ops, _OperatorColumns(spec, window).apply, window)
        assert sep.rows == full.rows, text
        assert sep.pivots == full.pivots, text


def _kinds(ops):
    one = sum(1 for _, slots in ops if slots is not None and len(slots) == 1)
    whole = sum(1 for _, slots in ops if slots is None)
    return one, whole, len(ops) - one - whole


@pytest.mark.parametrize(
    "factors,box,counts",
    [
        # three classes (first index -1, 0, 1), each separating all three slots
        ([(2, 1, 1), (3, 1, 1), (2, 3, 2)], BOX1, (9, 0, 0)),
        # a repeated pair never separates: one whole representative per class
        ([(2, 1, 1), (2, 1, 1)], BOX2, (0, 5, 0)),
        ([(2, 1, 1), (3, 1, 1)], BOX2, (10, 0, 0)),
        # two equal pairs: the odd slot alone, the equal two together, per class
        ([(2, 1, 1), (2, 3, 1), (2, 1, 0)], BOX1, (3, 0, 3)),
        ([(2, 1, 1), (4, 2, 1)], BOX2, (0, 5, 0)),
        ([(scalar("1i"), 2, 1), (scalar("1+1i"), scalar("1/2"), 0)], BOX2, (10, 0, 0)),
    ],
)
def test_operator_counts(factors, box, counts):
    spec, ops = _operators(factors, box)
    assert _kinds(ops) == counts
    # as many operators as spanning symbols: separation changes their kind, not their number
    assert len(ops) == len(spanning_symbols(spec, spec.algebra.symbols_in_box(box)))


def test_mixed_class_keeps_the_equal_slots_together():
    spec, ops = _operators([(2, 1, 1), (2, 3, 1), (2, 1, 0)], BOX1)
    assert {slots for _, slots in ops} == {(1,), (0, 2)}


def test_one_variable_operators_are_the_spanning_symbols():
    spec = OmegaLoop(2, 3, 1)
    syms = spec.algebra.symbols_in_box(BOX2)
    ops = spec.probe_operators(syms)
    assert [g for g, _ in ops] == spanning_symbols(spec, syms)
    assert all(slots == (0,) for _, slots in ops)


def _exponents(window: VectorWindow) -> dict:
    return {k: e for e, k in window._ext_at.items()}


@pytest.mark.parametrize("label,factors,box,D", CASES, ids=IDS)
def test_one_slot_columns_lie_on_their_slot_line(label, factors, box, D):
    spec, ops = _operators(factors, box)
    window = VectorWindow(D, spec.nvars)
    columns = _OperatorColumns(spec, window)
    exps = _exponents(window)
    for g, slots in ops:
        if slots is None or len(slots) > 1:
            continue
        (s,) = slots
        for k, mono in enumerate(window.monomials):
            col, _ = columns.column(g, k, slots)
            for c in col:
                e = exps[c]
                assert e[:s] + e[s + 1:] == mono[:s] + mono[s + 1:], (g, s, mono, e)


def _value(col: dict, den: int) -> dict:
    return {c: (Fraction(a, den), Fraction(b, den)) for c, (a, b) in col.items()}


@pytest.mark.parametrize("label,factors,box,D", CASES[:3], ids=IDS[:3])
def test_one_slot_columns_add_up_to_the_whole_column(label, factors, box, D):
    spec = TensorOmega(factors)
    window = VectorWindow(D, spec.nvars)
    columns = _OperatorColumns(spec, window)
    for g in spec.algebra.symbols_in_box(box):
        for k in range(window.dim):
            total: dict = {}
            for s in range(spec.nvars):
                for c, (a, b) in _value(*columns.column(g, k, (s,))).items():
                    x = total.get(c, (0, 0))
                    total[c] = (x[0] + a, x[1] + b)
            total = {c: x for c, x in total.items() if any(x)}
            assert total == _value(*columns.column(g, k)), (g, k)
