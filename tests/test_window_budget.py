"""Tensor probes take any number of factors; only the window's size is bounded.

A probe window of degree D in m variables holds (D + 1)^m monomials, and
``VectorWindow`` refuses one of more than ``WINDOW_CAP`` (2^16) before it
lists a monomial, with a ``WindowBudgetError`` (CLI exit 2, one ``error:``
line).  Within the budget, 4-, 5- and 8-factor tensors with distinct
(lambda, mu) pairs fill their windows, on boxes with enough second indices
to separate every slot.
"""

import tracemalloc

import pytest

import cartanfree.linalg as linalg
from cartanfree import IndexBox, ProbeConfig, TensorOmega, tensor_irreducibility_probe
from cartanfree.cli import main
from cartanfree.errors import ToolkitError, WindowBudgetError
from cartanfree.linalg import VectorWindow
from cartanfree.polynomials import WINDOW_CAP

PAIRS = [(2, 1), (3, 1), (2, 3), (5, 1), (3, 2), (7, 1), (2, 5), (5, 3)]
BOX2 = IndexBox((-2, 2), (-2, 2))
BOX_WIDE = IndexBox((-2, 2), (-4, 4))  # nine second indices separate eight slots


def _tensor(m: int, alpha0: bool = False) -> TensorOmega:
    return TensorOmega([(lam, mu, int(not (alpha0 and k == 0))) for k, (lam, mu) in enumerate(PAIRS[:m])])


def test_budget_is_two_to_the_sixteen():
    assert WINDOW_CAP == 2**16
    assert issubclass(WindowBudgetError, ToolkitError)


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("D", [2, 3])
def test_many_factors_fill_at_the_default_box(m, D):
    verdict = tensor_irreducibility_probe(_tensor(m), ProbeConfig(box=BOX2, max_degree=D, seeds=("1",)))
    assert verdict.verdict == "FillsWindow"
    assert verdict.dim == verdict.window_dim == (D + 1) ** m
    assert verdict.stats["operators"] == {"count": 5 * m, "one_slot": 5 * m}  # every slot separates


def test_eight_factors_fill_with_second_indices_to_four():
    verdict = tensor_irreducibility_probe(_tensor(8), ProbeConfig(box=BOX_WIDE, max_degree=1, seeds=("1",)))
    assert verdict.verdict == "FillsWindow"
    assert verdict.dim == 2**8
    assert verdict.stats["operators"]["one_slot"] == verdict.stats["operators"]["count"] == 40


@pytest.mark.parametrize("D", [2, 3])
def test_five_factors_alpha0_is_certified(D):
    verdict = tensor_irreducibility_probe(_tensor(5, alpha0=True), ProbeConfig(box=BOX2, max_degree=D, seeds=("t1",)))
    assert verdict.verdict == "ProperInvariantWindow"
    assert verdict.dim == D * (D + 1) ** 4  # t1 C[t1] in slot 1, the whole window in the others
    assert verdict.certificate == "invariant-certified"


@pytest.mark.parametrize("D,m", [(65535, 1), (255, 2)])
def test_windows_at_the_budget_are_admitted(D, m):
    assert VectorWindow(D, m).dim == WINDOW_CAP


@pytest.mark.parametrize("D,m", [(65536, 1), (256, 2), (3, 9), (1, 17), (20000, 2)])
def test_windows_over_the_budget_are_refused_before_listing(monkeypatch, D, m):
    def unlisted(*args):
        raise AssertionError("a monomial list was built")

    monkeypatch.setattr(linalg, "window_monomials", unlisted)
    with pytest.raises(WindowBudgetError, match=f"{D + 1}\\^{m} monomials"):
        VectorWindow(D, m)


def test_over_budget_cli_request_fails_fast(capsys):
    argv = ["probe", "tensor", "--factors", "2,1,1;3,1,1", "--max-degree", "20000"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "budget" in err[0]
    assert peak < 1_000_000  # no monomial list of the window


def test_over_budget_simplicity_probe_cli(capsys):
    argv = ["probe", "simplicity", "--algebra", "loop", "--lambda", "2", "--mu", "3", "--alpha", "1"]
    code = main([*argv, "--max-degree", str(WINDOW_CAP)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error:") and "budget" in err[0]
