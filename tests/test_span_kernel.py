"""`SpanBasis.kernel` against a Fraction Gauss-Jordan null-space reference.

The reference reduces the matrix on pairs of Fractions (real and imaginary
parts), independent of the package, and reads one null vector per free
column off its reduced rows, with the free coordinate 1.  Each vector of
`kernel` must be that vector times its positive integer entry x_f, be
primitive, vanish at the other non-pivot columns and be annihilated by
every inserted row; there must be ncols - rank of them, one per non-pivot
column in column order.  Matrices are tall, wide, zero and rank-deficient,
with Gaussian entries, some of them wider than 64 bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import GaussianRational, SpanBasis

CF = tuple[Fraction, Fraction]
CF0: CF = (Fraction(0), Fraction(0))

small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
wide = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70))
parts = st.one_of(small, small, wide)
entries = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, parts),
    st.builds(GaussianRational, parts, parts),
)
multipliers = st.builds(GaussianRational, small, small)


@st.composite
def matrices(draw):
    """(shape kind, ncols, rows): tall, wide, zero or rank-deficient."""
    kind = draw(st.sampled_from(("tall", "wide", "zero", "deficient")))
    if kind == "tall":
        ncols = draw(st.integers(1, 4))
        nrows = draw(st.integers(ncols + 1, ncols + 3))
    else:
        ncols = draw(st.integers(2, 7))
        nrows = draw(st.integers(1, ncols - 1)) if kind == "wide" else draw(st.integers(0, ncols + 2))
    if kind == "zero":
        return kind, ncols, [[GaussianRational(0)] * ncols for _ in range(nrows)]
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    if kind != "deficient":
        return kind, ncols, draw(st.lists(row, min_size=nrows, max_size=nrows))
    # rank at most r < min(nrows, ncols): every row a combination of r base rows
    nrows = max(nrows, 2)
    r = draw(st.integers(1, min(nrows, ncols) - 1))
    base = draw(st.lists(row, min_size=r, max_size=r))
    rows = []
    for _ in range(nrows):
        cs = draw(st.lists(multipliers, min_size=r, max_size=r))
        rows.append([sum((c * b[j] for c, b in zip(cs, base)), GaussianRational(0)) for j in range(ncols)])
    return kind, ncols, rows


def cf_sub(x: CF, y: CF) -> CF:
    return (x[0] - y[0], x[1] - y[1])


def cf_mul(x: CF, y: CF) -> CF:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cf_div(x: CF, y: CF) -> CF:
    n = y[0] * y[0] + y[1] * y[1]
    return cf_mul(x, (y[0] / n, -y[1] / n))


def ref_null_space(rows: list[list[GaussianRational]], ncols: int) -> tuple[list[int], dict[int, list[CF]]]:
    """Gauss-Jordan on Fraction pairs: the pivot columns, and per free column f the null vector with x_f = 1."""
    m = [[(x.re, x.im) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        hit = next((k for k in range(r, len(m)) if m[k][col] != CF0), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        m[r] = [cf_div(a, m[r][col]) for a in m[r]]
        for k in range(len(m)):
            if k != r and m[k][col] != CF0:
                c = m[k][col]
                m[k] = [cf_sub(a, cf_mul(c, b)) for a, b in zip(m[k], m[r])]
        pivots.append(col)
    null = {}
    for f in range(ncols):
        if f not in pivots:
            x = [CF0] * ncols
            x[f] = (Fraction(1), Fraction(0))
            for r, p in enumerate(pivots):
                x[p] = cf_sub(CF0, m[r][f])
            null[f] = x
    return pivots, null


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_kernel_matches_the_fraction_reference(drawn):
    kind, ncols, rows = drawn
    basis = SpanBasis(ncols)
    for row in rows:
        basis.insert(row)
    pivots, null = ref_null_space(rows, ncols)
    assert basis.pivots == pivots
    kernel = basis.kernel()
    assert len(kernel) == ncols - basis.rank == len(null)
    assert [f for f, _ in kernel] == sorted(null)
    if kind == "zero":
        assert kernel == [(f, {f: (1, 0)}) for f in range(ncols)]
    for f, x in kernel:
        xf = x[f]
        assert xf[0] > 0 and xf[1] == 0
        assert set(x) <= {f, *pivots}  # 0 at the other non-pivot columns
        assert all(a or b for a, b in x.values())
        assert gcd(*[n for pair in x.values() for n in pair]) == 1  # primitive
        scale = (Fraction(xf[0]), Fraction(0))
        want = [cf_mul(scale, c) for c in null[f]]
        got = [tuple(map(Fraction, x.get(j, (0, 0)))) for j in range(ncols)]
        assert got == want
        for row in rows:  # every inserted row annihilates x
            acc = CF0
            for j, c in enumerate(row):
                acc = cf_sub(acc, cf_mul((c.re, c.im), got[j]))
            assert acc == CF0


def test_kernel_of_a_known_matrix():
    # rows (2, 4, 0, i) and (0, 3, 6, 1): reduced rows (1, 0, -4, (-4+3i)/6) and (0, 1, 2, 1/3)
    basis = SpanBasis(4)
    basis.insert([GaussianRational(2), GaussianRational(4), GaussianRational(0), GaussianRational(0, 1)])
    basis.insert([GaussianRational(0), GaussianRational(3), GaussianRational(6), GaussianRational(1)])
    assert basis.kernel() == [
        (2, {2: (1, 0), 0: (4, 0), 1: (-2, 0)}),
        (3, {3: (6, 0), 0: (4, -3), 1: (-2, 0)}),
    ]
    assert SpanBasis(3).kernel() == [(0, {0: (1, 0)}), (1, {1: (1, 0)}), (2, {2: (1, 0)})]
