"""Probes act with a spanning subset of the box generators; this must be exact.

`spanning_symbols` (conftest.py, over `ModuleSpec.operator_classes`)
keeps, among the symbols that share every slot's (shift, root), those
whose lead vectors are linearly independent, and drops the symbols that
act as 0.  These tests check that the window closure under the subset
equals the closure under all box symbols (same canonical rows and
pivots), that every dropped symbol's image lies in the span of the kept
symbols' images, and the subset sizes the structure of each family
predicts.
"""

import pytest

from cartanfree import (
    IndexBox,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    TensorOmega,
    parse_polynomial,
    scalar,
)
from cartanfree.analysis import _OperatorColumns, _closure
from cartanfree.linalg import SpanBasis, VectorWindow

from conftest import spanning_symbols

BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))
BOX2_VIR = IndexBox((-2, 2))

# (label, spec, box, window degree, seeds); alpha = 0 specs give proper closures
CASES = [
    ("virasoro", OmegaVir(scalar("1/2+1i"), 1), BOX2_VIR, 6, ("1", "t^2 + 1")),
    ("virasoro-alpha0", OmegaVir(2, 0), BOX2_VIR, 6, ("t", "t^3 - t")),
    ("loop-gaussian", OmegaLoop(scalar("2i"), scalar("1-1i"), 1), BOX2_LOOP, 6, ("1", "t^3 - t")),
    ("loop-gaussian-alpha0", OmegaLoop(scalar("1+1i"), scalar("1/2"), 0), BOX2_LOOP, 6, ("t",)),
    ("block-rational-q", OmegaBlock(scalar("-3/2"), 2, 1), BOX2_BLOCK, 6, ("1", "t^2 + 1")),
    ("block-gaussian-q", OmegaBlock(scalar("1/2+1i"), scalar("1i"), 1), BOX2_BLOCK, 6, ("1",)),
    ("block-alpha0", OmegaBlock(2, 3, 0), BOX2_BLOCK, 6, ("t",)),
    ("block-hv-beta0", OmegaBlockHV(2, scalar("1/2"), 0), BOX2_BLOCK, 6, ("1", "t")),
    ("block-hv-beta0-alpha0", OmegaBlockHV(2, 0, 0), BOX2_BLOCK, 6, ("t",)),
    ("block-hv-beta", OmegaBlockHV(scalar("1i"), 0, 2), BOX2_BLOCK, 6, ("t", "t^2 + 1")),
    ("tensor2-distinct", TensorOmega([(2, 1, 1), (2, 3, 1)]), BOX2_LOOP, 3, ("1",)),
    ("tensor2-distinct-alpha0", TensorOmega([(2, 1, 0), (-2, 1, 1)]), BOX2_LOOP, 3, ("t1",)),
    ("tensor2-repeated", TensorOmega([(2, 1, 1), (2, 1, 1)]), BOX2_LOOP, 3, ("1", "t1")),
    ("tensor2-repeated-gaussian", TensorOmega([("1i", 2, 1), ("1i", 2, 0)]), BOX2_LOOP, 3, ("1",)),
    ("tensor3-repeated", TensorOmega([(2, 1, 1), (2, 3, 1), (2, 1, 0)]), BOX2_LOOP, 2, ("1",)),
]
IDS = [c[0] for c in CASES]


def _split(spec, box):
    syms = spec.algebra.symbols_in_box(box)
    kept = spanning_symbols(spec, syms)
    return syms, kept


@pytest.mark.parametrize("label,spec,box,D,seeds", CASES, ids=IDS)
def test_closure_under_subset_equals_closure_under_all(label, spec, box, D, seeds):
    syms, kept = _split(spec, box)
    assert len(kept) < len(syms)
    window = VectorWindow(D, spec.nvars)
    for text in seeds:
        seed = spec.vector(parse_polynomial(text))
        full = _closure(seed, syms, _OperatorColumns(spec, window).image, window, None)
        sub = _closure(seed, kept, _OperatorColumns(spec, window).image, window, None)
        assert sub.rows == full.rows
        assert sub.pivots == full.pivots


@pytest.mark.parametrize("label,spec,box,D,seeds", CASES, ids=IDS)
def test_dropped_images_lie_in_span_of_kept_images(label, spec, box, D, seeds):
    syms, kept = _split(spec, box)
    dropped = [s for s in syms if s not in kept]
    assert dropped
    vectors = VectorWindow(4 if spec.nvars == 1 else 2, spec.nvars)
    images = VectorWindow(5 if spec.nvars == 1 else 3, spec.nvars)
    for idx in range(vectors.dim):  # t^k, k <= 4 (tensors: every exponent <= 2)
        f = vectors.monomial(idx)
        span = SpanBasis(images.dim)
        for s in kept:
            span.insert(images.vector_of(spec.act_basis(s, f)))
        for s in dropped:
            assert span.contains(images.vector_of(spec.act_basis(s, f))), (s, f)


def test_subset_keeps_box_order():
    spec = TensorOmega([(2, 1, 1), (2, 3, 1)])
    syms, kept = _split(spec, BOX2_LOOP)
    assert kept == [s for s in syms if s in kept]


@pytest.mark.parametrize(
    "spec,box,total,size",
    [
        (OmegaLoop(2, 3, 1), BOX2_LOOP, 30, 5),  # one operator per i; C acts as 0
        (OmegaLoop(scalar("1+1i"), scalar("2i"), 0), BOX2_LOOP, 30, 5),
        (OmegaBlock(scalar("-3/2"), 2, 1), BOX2_BLOCK, 16, 5),  # only row 0 acts
        (OmegaBlock(scalar("1/2+1i"), 2, 1), BOX2_BLOCK, 16, 5),
        (OmegaVir(2, 1), BOX2_VIR, 6, 5),
        (OmegaBlockHV(2, 1, 0), BOX2_BLOCK, 15, 5),
        (OmegaBlockHV(2, 1, 3), BOX2_BLOCK, 15, 10),  # row 1 multiplies by a constant
        (TensorOmega([(2, 1, 1), (2, 3, 1)]), BOX2_LOOP, 30, 10),
        (TensorOmega([(2, 1, 1), (2, 1, 0)]), BOX2_LOOP, 30, 5),
        (TensorOmega([(2, 1, 1), (2, 3, 1), (2, 1, 0)]), BOX2_LOOP, 30, 10),
    ],
)
def test_subset_sizes(spec, box, total, size):
    syms, kept = _split(spec, box)
    assert len(syms) == total
    assert len(kept) == size
