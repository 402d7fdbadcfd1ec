"""Shared strategies and independent oracles for the test suite.

The rank oracle here deliberately avoids the package's own linear algebra:
it runs textbook Gaussian elimination on pairs of Fractions (real and
imaginary parts), so span/rank results can be cross-checked through a
structurally different code path.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from cartanfree import GaussianRational, Polynomial, scalar

# -- hypothesis strategies ---------------------------------------------------

small_ints = st.integers(min_value=-9, max_value=9)
small_fractions = st.builds(Fraction, small_ints, st.integers(min_value=1, max_value=9))


@st.composite
def scalars(draw, nonzero: bool = False):
    re = draw(small_fractions)
    im = draw(small_fractions)
    x = GaussianRational(re, im)
    if nonzero and not x:
        x = GaussianRational(1, im)
    return x


@st.composite
def polynomials(draw, max_degree: int = 5, nonzero: bool = False):
    coeffs = draw(st.lists(scalars(), min_size=0, max_size=max_degree + 1))
    p = Polynomial(coeffs)
    if nonzero and p.is_zero:
        p = Polynomial([1])
    return p


# -- independent exact-rank oracle -------------------------------------------

CF = tuple[Fraction, Fraction]  # complex number as (re, im) Fractions


def _cf(x: GaussianRational) -> CF:
    return (x.re, x.im)


def _cf_sub(a: CF, b: CF) -> CF:
    return (a[0] - b[0], a[1] - b[1])


def _cf_mul(a: CF, b: CF) -> CF:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cf_div(a: CF, b: CF) -> CF:
    n = b[0] * b[0] + b[1] * b[1]
    conj = (b[0] / n, -b[1] / n)
    return _cf_mul(a, conj)


def oracle_rank(rows: list[list[GaussianRational]]) -> int:
    """Row-reduce (fraction pairs, partial pivot by first nonzero) and count."""
    m = [[_cf(x) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(m)):
            if m[r][col] != (Fraction(0), Fraction(0)):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        piv = m[rank][col]
        for r in range(len(m)):
            if r == rank:
                continue
            c = m[r][col]
            if c != (Fraction(0), Fraction(0)):
                factor = _cf_div(c, piv)
                m[r] = [_cf_sub(a, _cf_mul(factor, b)) for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def oracle_solvable(rows: list[list[GaussianRational]], target: list[GaussianRational]) -> bool:
    """Is target a linear combination of rows?  (rank test on the stack.)"""
    if not rows:
        return all(not x for x in target)
    return oracle_rank(rows) == oracle_rank(rows + [target])


@pytest.fixture
def rank_oracle():
    return oracle_rank


@pytest.fixture
def membership_oracle():
    return oracle_solvable


def s(text: str) -> GaussianRational:
    return scalar(text)


# -- operator-class representatives -------------------------------------------


def spanning_symbols(spec, syms):
    """The representatives of ``spec.operator_classes(syms)``, in the order of syms.

    Every other symbol of syms acts as a combination of its class's
    representatives, or as 0, so the image of a vector under any symbol of
    syms lies in the span of its images under the returned symbols: an
    operator list for ``analysis._closure`` that acts with whole symbols.
    """
    reps = {g for cls_reps, _ in spec.operator_classes(syms) for g in cls_reps}
    return [s for s in syms if s in reps]
