"""The one-vector slot certificate against the window sweep it replaces.

``analysis._certificate`` checks that a proper closure is the t_k-slice of
the window, then applies each box generator once, to t_k alone.  Under the
rank-one (Leibniz) rule that decides whether the generators keep every
t_k-multiple.  The reference here is a copy of the sweep it replaced: every
box generator on every window monomial divisible by t_k.  Both must return
the same certificate on the probe's own closures and on the bare t_k-slice
of every slot, for the loop, Block and Block(-1) families at every
``GRID_ALPHA`` and ``GRID_BETA`` value and for tensor products with shared,
distinct and partly shared (lambda, mu) pairs.  The certificate's cost is
pinned: one ``act_basis`` call per box symbol for each slot whose rows match.
"""

from itertools import product

import pytest

import cartanfree.analysis as analysis
from cartanfree import (
    IndexBox,
    ModuleSpec,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    Polynomial,
    ProbeConfig,
    TensorOmega,
    simplicity_probe,
)
from cartanfree.analysis import GRID_ALPHA, GRID_BETA, _certificate
from cartanfree.linalg import SpanBasis, VectorWindow

BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))
BOX1 = IndexBox((-1, 1), (-1, 1))

SINGLE = (
    [(OmegaLoop(2, 3, a), BOX2_LOOP) for a in GRID_ALPHA]
    + [(OmegaLoop("1i", "1/2", a), BOX2_LOOP) for a in GRID_ALPHA]
    + [(OmegaBlock(q, 2, a), BOX2_BLOCK) for q in ("1/2", "-3/2", 2) for a in GRID_ALPHA]
    + [(OmegaBlockHV(2, a, b), BOX2_BLOCK) for a in GRID_ALPHA for b in GRID_BETA]
)

PAIRS = {
    "shared": [(2, 1), (2, 1)],
    "distinct": [(2, 1), (2, 3)],
    "three-partly-shared": [(2, 1), (2, 3), (2, 1)],
}
TENSOR = [
    (label, TensorOmega([(lam, mu, a) for (lam, mu), a in zip(pairs, alphas)]))
    for label, pairs in PAIRS.items()
    for alphas in product(GRID_ALPHA if len(pairs) == 2 else (0, 1), repeat=len(pairs))
]


def _escapes(image, k):
    if isinstance(image, Polynomial):
        return bool(image.constant_term)
    return any(e[k] == 0 for e in image.exponents())


def slice_sweep(spec: ModuleSpec, box: IndexBox, window: VectorWindow, closure: SpanBasis) -> str:
    """The certificate as a sweep over every window monomial divisible by t_k."""
    monos = window.monomials
    syms = spec.algebra.symbols_in_box(box)
    for k in range(window.nvars):
        outside = {idx for idx, e in enumerate(monos) if not e[k]}
        if closure.rank != window.dim - len(outside):
            continue
        if any(not outside.isdisjoint(row) for row in closure.num_rows):
            continue
        slice_basis = [window.monomial(idx) for idx, e in enumerate(monos) if e[k]]
        if not any(_escapes(spec.act_basis(g, f), k) for g in syms for f in slice_basis):
            return "invariant-certified"
    return "window-evidence"


def slot_slice(window: VectorWindow, k: int) -> SpanBasis:
    """The t_k-multiples of the window as a closure."""
    basis = SpanBasis(window.dim)
    for idx, e in enumerate(window.monomials):
        if e[k]:
            basis.insert({idx: (1, 0)})
    return basis


def rows_match(window: VectorWindow, closure: SpanBasis) -> int:
    """How many slots have the closure's rank and rows of their t_k-slice."""
    tried = 0
    for k in range(window.nvars):
        outside = {idx for idx, e in enumerate(window.monomials) if not e[k]}
        tried += closure.rank == window.dim - len(outside) and all(outside.isdisjoint(r) for r in closure.num_rows)
    return tried


def _probe_closures(monkeypatch, spec, cfg):
    """Run the probe, recording (window, closure, certificate) of every _certificate call."""
    seen = []
    real = analysis._certificate

    def recording(spec_, box, window, closure):
        out = real(spec_, box, window, closure)
        seen.append((window, closure, out))
        return out

    monkeypatch.setattr(analysis, "_certificate", recording)
    verdict = simplicity_probe(spec, cfg)
    monkeypatch.setattr(analysis, "_certificate", real)
    assert [c for *_, c in seen] == ([] if verdict.fills else [verdict.certificate])
    return verdict, seen


def _count_actions(monkeypatch):
    calls = [0]
    slot, whole = ModuleSpec.act_basis, TensorOmega.act_basis

    def counting(real):
        def act_basis(self, sym, f):
            calls[0] += 1
            return real(self, sym, f)

        return act_basis

    monkeypatch.setattr(ModuleSpec, "act_basis", counting(slot))
    monkeypatch.setattr(TensorOmega, "act_basis", counting(whole))
    return calls


def _check(monkeypatch, spec, box, D, seeds):
    cfg = ProbeConfig(box=box, max_degree=D, seeds=seeds)
    verdict, seen = _probe_closures(monkeypatch, spec, cfg)
    nsyms = len(spec.algebra.symbols_in_box(box))
    calls = _count_actions(monkeypatch)
    for window, closure, certificate in seen:
        calls[0] = 0
        assert _certificate(spec, box, window, closure) == certificate
        assert calls[0] == nsyms * rows_match(window, closure), spec
        assert certificate == slice_sweep(spec, box, window, closure)
    window = VectorWindow(D, spec.nvars)
    for k in range(spec.nvars):
        closure = slot_slice(window, k)
        assert _certificate(spec, box, window, closure) == slice_sweep(spec, box, window, closure), (spec, k)
    return verdict


@pytest.mark.parametrize("spec,box", SINGLE, ids=[spec.describe() for spec, _ in SINGLE])
def test_single_family_certificate_equals_slice_sweep(monkeypatch, spec, box):
    verdict = _check(monkeypatch, spec, box, 8, ProbeConfig().seeds)
    params = spec.params()
    # t * C[t] is a proper submodule exactly at alpha = 0 (and beta = 0 for Block(-1))
    assert (verdict.certificate == "invariant-certified") == (params["alpha"] == 0 and not params.get("beta"))


@pytest.mark.parametrize("label,spec", TENSOR, ids=[f"{label}-{spec.describe()}" for label, spec in TENSOR])
def test_tensor_certificate_equals_slice_sweep(monkeypatch, label, spec):
    _check(monkeypatch, spec, BOX1, 3, ("1", "t1", "t2", "t1*t2 + 1"))


def test_certified_tensor_slot_costs_one_action_per_symbol(monkeypatch):
    # Omega(2,1,1) x Omega(2,3,0): the closure of t2 is the t2-slice, certified in slot 2
    spec = TensorOmega([(2, 1, 1), (2, 3, 0)])
    verdict, seen = _probe_closures(monkeypatch, spec, ProbeConfig(box=BOX1, max_degree=3, seeds=("t2",)))
    assert verdict.certificate == "invariant-certified"
    ((window, closure, _),) = seen
    calls = _count_actions(monkeypatch)
    assert _certificate(spec, BOX1, window, closure) == "invariant-certified"
    assert calls[0] == len(spec.algebra.symbols_in_box(BOX1)) == 12
