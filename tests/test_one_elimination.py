"""Each probe closure runs one elimination, and the composition check one pass.

``_closure`` keeps one staging basis that takes the seed and every image;
the window-coordinate closure is read off it once, at the end, so that
basis gets exactly one insert per rank.  ``composition_series_check``
computes g . 1 and g . t^k once per generator (and g . t^(k-1) in the
alpha = 1 module), with no second sweep for the invariance fact.
"""

import pytest

import cartanfree.analysis as analysis
from cartanfree import IndexBox, OmegaLoop, P_ONE, ProbeConfig, T, TensorOmega, composition_series_check
from cartanfree.analysis import _OperatorColumns, _closure
from cartanfree.linalg import SpanBasis, VectorWindow

from conftest import spanning_symbols

BOX1 = IndexBox((-1, 1), (-1, 1))


@pytest.mark.parametrize(
    "spec,D,seed",
    [
        (OmegaLoop(2, 3, 1), 4, P_ONE),
        (OmegaLoop(2, 3, 0), 6, T),
        (TensorOmega([(2, 1, 1), (2, 3, 1)]), 3, P_ONE),
    ],
)
def test_closure_inserts(monkeypatch, spec, D, seed):
    window = VectorWindow(D, spec.nvars)
    gens = spanning_symbols(spec, spec.algebra.symbols_in_box(ProbeConfig().box))
    seed = spec.vector(seed)
    inserts = {window.dim: 0, window.ext_dim: 0}
    images = 0
    real_insert = SpanBasis.insert

    def insert(self, v):
        inserts[self.ncols] += 1
        return real_insert(self, v)

    columns = _OperatorColumns(spec, window)

    def act(g, row):
        nonlocal images
        image = columns.image(g, row)
        images += bool(image)
        return image

    monkeypatch.setattr(SpanBasis, "insert", insert)
    closure = _closure(seed, gens, act, window, None)
    assert inserts[window.ext_dim] == 1 + images  # the seed, then every nonzero image
    assert inserts[window.dim] == closure.rank  # the read-out, one insert per row


def test_composition_act_count(monkeypatch):
    D = 2
    calls = 0
    real_act = OmegaLoop.act_basis

    def act_basis(self, sym, f):
        nonlocal calls
        calls += 1
        return real_act(self, sym, f)

    def no_second_sweep(*args, **kwargs):
        raise AssertionError("composition_series_check ran the invariance sweep again")

    monkeypatch.setattr(OmegaLoop, "act_basis", act_basis)
    monkeypatch.setattr(analysis, "submodule_invariance_check", no_second_sweep)
    assert composition_series_check(2, 3, BOX1, D).ok
    n = len(OmegaLoop(2, 3, 0).algebra.symbols_in_box(BOX1))
    assert calls == n * (1 + 2 * D) == 60


def test_composition_detail_order(monkeypatch):
    # a family where all three facts fail: the alpha = 1 module stands in for alpha = 0
    real = OmegaLoop
    monkeypatch.setattr(analysis, "OmegaLoop", lambda lam, mu, alpha: real(lam, mu, alpha + 1))
    report = composition_series_check(2, 3, BOX1, 2)
    assert not (report.invariance_ok or report.trivial_quotient_ok or report.intertwiner_ok)
    kinds = ["escape" if "has constant term" in line
             else "quotient" if " . 1 = " in line or "central" in line
             else "intertwiner" for line in report.detail]
    assert kinds[0] == "escape" and kinds.count("escape") == 1
    assert kinds[1:] == sorted(kinds[1:], key=["quotient", "intertwiner"].index)
    assert "quotient" in kinds and "intertwiner" in kinds
