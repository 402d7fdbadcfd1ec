"""A separated monomial seed whose block closures all fill returns the identity basis.

When every block closure fills its block window, their tensor product is
the whole window, so ``_closure`` returns ``SpanBasis.identity`` and runs
no elimination over the window: no ``insert`` into a basis of
``window.dim`` columns.  A proper block still builds the product
(``_tensor``), whose rows the witness and the certificate read.
"""

import pytest

import cartanfree.analysis as analysis
from cartanfree import IndexBox, ProbeConfig, TensorOmega, tensor_irreducibility_probe
from cartanfree.linalg import SpanBasis, VectorWindow

BOX1 = IndexBox((-1, 1), (-1, 1))
BOX2 = IndexBox((-2, 2), (-2, 2))


def _record_inserts(monkeypatch) -> dict[int, int]:
    """insert calls per column count of the bases the probe builds."""
    counts: dict[int, int] = {}

    class Recording(SpanBasis):
        def insert(self, v):
            counts[self.ncols] = counts.get(self.ncols, 0) + 1
            return super().insert(v)

    monkeypatch.setattr(analysis, "SpanBasis", Recording)
    return counts


@pytest.mark.parametrize(
    "factors,box,D",
    [
        ([(2, 1, 1), (3, 1, 1), (2, 3, 2)], BOX1, 4),
        ([(2, 1, 1), (3, 1, 1)], BOX2, 5),
        ([(2, 1, 1), (3, 1, 1), (2, 3, 1), (5, 1, 1)], BOX2, 3),
    ],
    ids=["three-D4", "two-D5", "four-D3"],
)
def test_filled_blocks_make_no_window_insert(monkeypatch, factors, box, D):
    window = VectorWindow(D, len(factors))
    counts = _record_inserts(monkeypatch)
    verdict = tensor_irreducibility_probe(TensorOmega(factors), ProbeConfig(box=box, max_degree=D, seeds=("1",)))
    assert verdict.fills and verdict.dim == window.dim
    assert counts.get(window.dim, 0) == 0
    assert window.ext_dim not in counts
    assert counts.get(VectorWindow(D).ext_dim, 0) > 0  # the block closures


def test_proper_block_still_builds_the_product(monkeypatch):
    window = VectorWindow(3, 2)
    counts = _record_inserts(monkeypatch)
    cfg = ProbeConfig(box=BOX2, max_degree=3, seeds=("t1",))
    verdict = tensor_irreducibility_probe(TensorOmega([(2, 1, 0), (3, 1, 1)]), cfg)
    assert not verdict.fills and verdict.dim == 3 * 4
    assert counts[window.dim] == verdict.dim  # one product row per basis vector


@pytest.mark.parametrize("n", [1, 2, 7, 36])
def test_identity_is_the_reduced_whole_space(n):
    basis = SpanBasis(n)
    for k in reversed(range(n)):
        basis.insert({k: (3, -2)})
    identity = SpanBasis.identity(n)
    assert identity.ncols == n and identity.rank == n
    assert identity.pivots == basis.pivots
    assert identity.num_rows == basis.num_rows
    assert identity.rows == basis.rows
    assert identity.contains({0: (1, 1), n - 1: (-5, 0)})
    assert identity.kernel() == []
