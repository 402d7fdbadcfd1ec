"""Probes act through per-probe operator columns, built slot by slot and shared by all seeds.

Column (g, k) of ``_OperatorColumns`` is the staging numerator map of
g . m_k, for m_k the k-th window monomial, over its denominator.  These
tests hold every column to the whole-vector action ``act_basis`` (whose
tensor form runs its own split into columns), check that the image of a
combination of monomials keeps each column's denominator, and count the
slot kernel runs of one probe: each (slot, generator, exponent) runs
once, however many seeds and rounds use it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cartanfree.analysis as analysis
from cartanfree import (
    DEFAULT_SEEDS,
    GaussianRational,
    IndexBox,
    ModuleSpec,
    MultiPolynomial,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    Polynomial,
    ProbeConfig,
    TensorOmega,
    scalar,
    simplicity_probe,
)
from cartanfree.analysis import _OperatorColumns
from cartanfree.linalg import VectorWindow

from conftest import spanning_symbols

BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))
BOX2_VIR = IndexBox((-2, 2))
BOX1_LOOP = IndexBox((-1, 1), (-1, 1))

# (label, spec, box, window degree); Block with q = 1/2 or -3/2 shifts by m*q,
# so each monomial's column has its own denominator
CASES = [
    ("loop-gaussian", OmegaLoop(scalar("1+2i"), scalar("1/2"), scalar("-1/2")), BOX2_LOOP, 6),
    ("block-half", OmegaBlock(scalar("1/2"), 3, 1), BOX2_BLOCK, 6),
    ("block-minus-three-halves", OmegaBlock(scalar("-3/2"), scalar("1i"), 2), BOX2_BLOCK, 6),
    ("block-hv-beta", OmegaBlockHV(2, scalar("1/2"), 3), BOX2_BLOCK, 6),
    ("virasoro", OmegaVir(scalar("1/2-1i"), 1), BOX2_VIR, 6),
    ("tensor2", TensorOmega([(2, 1, 1), ("1i", "1/3", "-1/2")]), BOX2_LOOP, 3),
    ("tensor3", TensorOmega([(2, 1, 1), (2, 3, 0), ("1/2", 2, "1i")]), BOX1_LOOP, 2),
]
IDS = [c[0] for c in CASES]


def _proportional(u: dict, v: dict) -> bool:
    """Are two numerator maps nonzero Gaussian multiples of each other (or both zero)?"""
    if u.keys() != v.keys():
        return False
    if not u:
        return True
    pa, pb = u[min(u)]
    qa, qb = v[min(v)]
    # u[c] * v[p] == v[c] * u[p] for every column c
    return all(
        a * qa - b * qb == c * pa - d * pb and a * qb + b * qa == c * pb + d * pa
        for (a, b), (c, d) in ((u[k], v[k]) for k in u)
    )


@pytest.mark.parametrize("label,spec,box,D", CASES, ids=IDS)
def test_every_column_is_the_image_of_its_monomial(label, spec, box, D):
    window = VectorWindow(D, spec.nvars)
    columns = _OperatorColumns(spec, window)
    for g in spec.algebra.symbols_in_box(box):  # every box symbol, so every spanning one
        for k in range(window.dim):
            col, den = columns.column(g, k)
            ref, rden = window.ext_vector(spec.act_basis(g, window.monomial(k)))
            assert col.keys() == ref.keys(), (g, k)
            # equal values, not only equal directions: col / den == ref / rden
            assert all(
                col[c][0] * rden == a * den and col[c][1] * rden == b * den for c, (a, b) in ref.items()
            ), (g, k)
            assert columns.column(g, k) is columns.column(g, k)  # filled once


def _combination(window: VectorWindow, coeffs: dict):
    """sum of c * m_k over coeffs {k: (re, im)}, as a polynomial of the window's kind."""
    terms = {window.monomials[k]: GaussianRational(a, b) for k, (a, b) in coeffs.items()}
    if window.nvars == 1:
        dense = [0] * window.dim
        for (e,), c in terms.items():
            dense[e] = c
        return Polynomial(dense)
    return MultiPolynomial(window.nvars, terms)


gaussian_ints = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(any)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CASES), st.data())
def test_image_of_a_combination_matches_act_basis(case, data):
    _, spec, box, D = case
    window = VectorWindow(D, spec.nvars)
    gens = spanning_symbols(spec, spec.algebra.symbols_in_box(box))
    g = data.draw(st.sampled_from(gens))
    coeffs = data.draw(
        st.dictionaries(st.integers(0, window.dim - 1), gaussian_ints, min_size=1, max_size=5)
    )
    row = {window.n_outside + k: x for k, x in coeffs.items()}  # an inside staging row
    image = _OperatorColumns(spec, window).image(g, row)
    ref, _ = window.ext_vector(spec.act_basis(g, _combination(window, coeffs)))
    assert _proportional(image, ref), (g, coeffs)


def _count_kernel_runs(monkeypatch):
    """Counters of the action calls made outside the certificate sweep."""
    counts = {"slot": 0, "whole": 0, "in_certificate": 0}
    inside = [False]
    real_slot, real_whole = ModuleSpec.act_basis, TensorOmega.act_basis
    real_certificate = analysis._certificate

    def slot(self, sym, f):
        counts["in_certificate" if inside[0] else "slot"] += 1
        return real_slot(self, sym, f)

    def whole(self, sym, f):
        counts["in_certificate" if inside[0] else "whole"] += 1
        return real_whole(self, sym, f)

    def certificate(*args):
        inside[0] = True
        try:
            return real_certificate(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(ModuleSpec, "act_basis", slot)
    monkeypatch.setattr(TensorOmega, "act_basis", whole)
    monkeypatch.setattr(analysis, "_certificate", certificate)
    return counts


@pytest.mark.parametrize(
    "spec,box,D",
    [
        (OmegaLoop(2, 3, 1), BOX2_LOOP, 12),
        (OmegaLoop(2, 3, 0), BOX2_LOOP, 12),  # proper: the certificate sweep runs too
        (OmegaBlock(scalar("1/2"), 2, 1), BOX2_BLOCK, 10),
        (OmegaBlockHV(1, 0, 0), BOX2_BLOCK, 10),
    ],
)
def test_one_probe_shares_its_columns_across_seeds(monkeypatch, spec, box, D):
    cfg = ProbeConfig(box=box, max_degree=D, seeds=DEFAULT_SEEDS)
    window = VectorWindow(D)
    gens = spanning_symbols(spec, spec.algebra.symbols_in_box(box))
    counts = _count_kernel_runs(monkeypatch)
    verdict = simplicity_probe(spec, cfg)
    assert len(verdict.seed_dims) == len(DEFAULT_SEEDS)
    assert 0 < counts["slot"] <= len(gens) * window.dim
    assert (counts["in_certificate"] > 0) == (verdict.certificate is not None)


@pytest.mark.parametrize(
    "factors,box,D",
    [
        ([(2, 1, 1), (2, 3, 1)], BOX2_LOOP, 4),
        ([(2, 1, 0), (2, 1, 0)], BOX2_LOOP, 4),  # a shared (lambda, mu): proper
        ([(2, 1, 1), (2, 3, 1), ("1/2", 2, 0)], BOX1_LOOP, 3),
    ],
)
def test_tensor_probe_runs_each_slot_kernel_once(monkeypatch, factors, box, D):
    spec = TensorOmega(factors)
    cfg = ProbeConfig(box=box, max_degree=D, seeds=("1", "t1", "t1*t2 + 1"))
    gens = spanning_symbols(spec, spec.algebra.symbols_in_box(box))
    counts = _count_kernel_runs(monkeypatch)
    simplicity_probe(spec, cfg)
    assert counts["whole"] == 0  # no whole-vector action outside the certificate
    assert 0 < counts["slot"] <= len(gens) * spec.nvars * (D + 2)
