"""A probe closure runs on integers: ``_closure`` makes no GaussianRational.

Images enter the staging basis as numerator maps combined from operator
columns, which are read from the polynomial storage of the slot images,
and the eliminations keep Gaussian-integer rows.  Every route that builds a
GaussianRational is counted while one closure runs: ``_make`` and every
module-level alias of it, ``_raw``, the constructor, and the
``object.__new__`` alias that the scalar operators call directly.  The
rules of the spanning generators are memoized before counting, because
factoring x . 1 on first use is scalar work outside the closure.
"""

import sys

import pytest

import cartanfree.scalars as scalars
from cartanfree import OmegaLoop, P_ONE, ProbeConfig, T, TensorOmega
from cartanfree.analysis import _OperatorColumns, _closure
from cartanfree.linalg import VectorWindow
from cartanfree.scalars import GaussianRational

from conftest import spanning_symbols


def _count_scalar_builds(monkeypatch) -> list[int]:
    built = [0]

    def counting(real):
        def wrapper(*args, **kwargs):
            built[0] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("_make", "_raw"):
        real = GaussianRational.__dict__[name].__func__
        wrapper = counting(real)
        monkeypatch.setattr(GaussianRational, name, staticmethod(wrapper))
        for module in [m for n, m in sys.modules.items() if n.startswith("cartanfree")]:
            for alias, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, alias, wrapper)
    monkeypatch.setattr(GaussianRational, "__init__", counting(GaussianRational.__init__))
    real_new = scalars._new

    def new(cls, *args):
        built[0] += cls is GaussianRational
        return real_new(cls, *args)

    monkeypatch.setattr(scalars, "_new", new)
    return built


@pytest.mark.parametrize(
    "spec,D,seed,rank",
    [
        (OmegaLoop(2, 3, 1), 8, P_ONE, 9),  # fills the window
        (OmegaLoop(2, "1/2", 0), 8, T, 8),  # the zero-constant-term slice
        (OmegaLoop("1i", 2, "-1/2"), 6, P_ONE, 7),  # Gaussian parameters
        (TensorOmega([(2, 1, 1), (2, 3, 1)]), 3, P_ONE, 16),
    ],
)
def test_closure_builds_no_gaussian_rational(monkeypatch, spec, D, seed, rank):
    window = VectorWindow(D, spec.nvars)
    gens = spanning_symbols(spec, spec.algebra.symbols_in_box(ProbeConfig().box))
    seed = spec.vector(seed)
    built = _count_scalar_builds(monkeypatch)
    closure = _closure(seed, gens, _OperatorColumns(spec, window).image, window)
    assert closure.rank == rank
    assert built[0] == 0


def test_the_counter_sees_scalar_work(monkeypatch):
    # the same counter notices the GaussianRational views the closure avoids
    built = _count_scalar_builds(monkeypatch)
    VectorWindow(3).vector_of(T)
    assert (T + T).coeffs[1] == 2
    assert built[0] >= 2
