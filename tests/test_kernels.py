"""Differential tests of the integer kernels against a Fraction-pair reference.

The scalar fast paths, the common-denominator polynomial kernels (shift,
mul_linear, scale, +, -, shift_var, mul_linear_var) and the sparse
elimination in SpanBasis are compared with textbook arithmetic on pairs of
Fractions written here, independent of the package.  Coefficients include
values wider than 64 bits, zeros, and terms that cancel.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import GaussianRational, MultiPolynomial, Polynomial, SpanBasis, scalar

CF = tuple[Fraction, Fraction]
CF0: CF = (Fraction(0), Fraction(0))

wide_ints = st.one_of(st.integers(-9, 9), st.integers(-(2**100), 2**100))
denominators = st.one_of(st.integers(1, 9), st.integers(1, 2**70))
fractions = st.one_of(st.builds(Fraction, wide_ints), st.builds(Fraction, wide_ints, denominators))


@st.composite
def wide_scalars(draw):
    """Zero, integers, rationals and Gaussian values, some of them wide."""
    kind = draw(st.sampled_from(("zero", "int", "real", "gaussian")))
    if kind == "zero":
        return GaussianRational(0)
    if kind == "int":
        return GaussianRational(draw(wide_ints))
    if kind == "real":
        return GaussianRational(draw(fractions))
    return GaussianRational(draw(fractions), draw(fractions))


coeff_lists = st.lists(wide_scalars(), max_size=7)
shift_amounts = st.one_of(
    st.integers(-3, 3),
    st.just(Fraction(3, 2)),
    st.just(GaussianRational(Fraction(3, 2))),
    st.just(GaussianRational(Fraction(-1, 2), 2)),
    wide_scalars(),
)


# -- the reference: complex numbers as (re, im) Fraction pairs ------------------


def cf(x) -> CF:
    x = scalar(x)
    return (x.re, x.im)


def cf_add(x: CF, y: CF) -> CF:
    return (x[0] + y[0], x[1] + y[1])


def cf_sub(x: CF, y: CF) -> CF:
    return (x[0] - y[0], x[1] - y[1])


def cf_mul(x: CF, y: CF) -> CF:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cf_div(x: CF, y: CF) -> CF:
    n = y[0] * y[0] + y[1] * y[1]
    return cf_mul(x, (y[0] / n, -y[1] / n))


def trim(cs: list[CF]) -> list[CF]:
    cs = list(cs)
    while cs and cs[-1] == CF0:
        cs.pop()
    return cs


def ref_mul_linear(cs: list[CF], root: CF) -> list[CF]:
    """cs * (t - root)."""
    out = [CF0] * (len(cs) + 1)
    for k, c in enumerate(cs):
        out[k + 1] = cf_add(out[k + 1], c)
        out[k] = cf_sub(out[k], cf_mul(c, root))
    return trim(out)


def ref_combine(op, xs: list[CF], ys: list[CF]) -> list[CF]:
    n = max(len(xs), len(ys))
    return trim([op(x, y) for x, y in zip(xs + [CF0] * (n - len(xs)), ys + [CF0] * (n - len(ys)))])


def ref_shift(cs: list[CF], c: CF) -> list[CF]:
    """f(t - c) by Horner's rule: ((f_n)(t - c) + f_{n-1})(t - c) + ..."""
    out: list[CF] = []
    for fk in reversed(cs):
        out = ref_combine(cf_add, ref_mul_linear(out, c), [fk])
    return out


def same(p: Polynomial, ref: list[CF]) -> bool:
    """Equal canonical coefficients ((a, b, d) triples) and a stripped tail."""
    return p.coeffs == tuple(GaussianRational(re, im) for re, im in trim(ref))


def ref_terms(f: MultiPolynomial) -> dict[tuple[int, ...], CF]:
    return {e: cf(c) for e, c in f.terms.items()}


def clean(terms: dict[tuple[int, ...], CF]) -> dict[tuple[int, ...], GaussianRational]:
    return {e: GaussianRational(*c) for e, c in terms.items() if c != CF0}


def bump(e: tuple[int, ...], k: int, to: int) -> tuple[int, ...]:
    return e[:k] + (to,) + e[k + 1:]


# -- scalars --------------------------------------------------------------------


class TestScalarFastPaths:
    @given(wide_scalars(), wide_scalars())
    def test_add_sub_mul(self, x, y):
        # == on two scalars compares the canonical (a, b, d) triples
        assert x + y == GaussianRational(*cf_add(cf(x), cf(y)))
        assert x - y == GaussianRational(*cf_sub(cf(x), cf(y)))
        assert x * y == GaussianRational(*cf_mul(cf(x), cf(y)))

    @given(wide_scalars(), wide_ints)
    def test_mixed_with_int(self, x, n):
        assert x + n == n + x == GaussianRational(*cf_add(cf(x), cf(n)))
        assert x - n == GaussianRational(*cf_sub(cf(x), cf(n)))
        assert n - x == GaussianRational(*cf_sub(cf(n), cf(x)))
        assert x * n == n * x == GaussianRational(*cf_mul(cf(x), cf(n)))

    @given(wide_ints)
    def test_int_hash(self, n):
        assert hash(scalar(n)) == hash(n)
        assert hash(scalar(n) + scalar(1) - 1) == hash(n)

    @given(fractions)
    def test_fraction_hash(self, q):
        assert hash(scalar(q)) == hash(q)
        assert hash(scalar(q) * scalar(2)) == hash(q * 2)
        assert scalar(q) * scalar(2) == q * 2


# -- univariate kernels ------------------------------------------------------------


class TestPolynomialKernels:
    @settings(deadline=None)
    @given(coeff_lists, shift_amounts)
    def test_shift(self, cs, c):
        f = Polynomial(cs)
        assert same(f.shift(c), ref_shift([cf(x) for x in f.coeffs], cf(c)))

    @settings(deadline=None)
    @given(coeff_lists, wide_scalars())
    def test_shift_round_trip(self, cs, c):
        f = Polynomial(cs)
        assert f.shift(c).shift(-c) == f

    @given(coeff_lists, st.one_of(st.integers(-3, 3), wide_scalars()))
    def test_mul_linear(self, cs, root):
        f = Polynomial(cs)
        assert same(f.mul_linear(root), ref_mul_linear([cf(x) for x in f.coeffs], cf(root)))

    @given(coeff_lists, st.one_of(st.integers(-3, 3), wide_scalars()))
    def test_scale(self, cs, c):
        f = Polynomial(cs)
        assert same(f.scale(c), [cf_mul(cf(x), cf(c)) for x in f.coeffs])

    @given(coeff_lists, coeff_lists)
    def test_add_sub(self, xs, ys):
        f, g = Polynomial(xs), Polynomial(ys)
        a, b = [cf(x) for x in f.coeffs], [cf(y) for y in g.coeffs]
        assert same(f + g, ref_combine(cf_add, a, b))
        assert same(f - g, ref_combine(cf_sub, a, b))

    @given(coeff_lists)
    def test_cancelling_terms(self, cs):
        f = Polynomial(cs)
        assert (f - f).is_zero
        assert (f + (-f)).is_zero
        assert f.shift(3).scale(0).is_zero


# -- multivariate kernels ------------------------------------------------------------


@st.composite
def multi(draw, nvars: int = 2):
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(exps, wide_scalars(), max_size=6))
    return MultiPolynomial(nvars, terms)


class TestMultiKernels:
    @settings(deadline=None)
    @given(multi(), st.integers(0, 1), shift_amounts)
    def test_shift_var(self, f, k, c):
        negc = cf_mul(cf(c), (Fraction(-1), Fraction(0)))
        ref: dict[tuple[int, ...], CF] = {}
        for e, x in ref_terms(f).items():
            for j in range(e[k] + 1):
                w = (Fraction(comb(e[k], j)), Fraction(0))
                for _ in range(e[k] - j):
                    w = cf_mul(w, negc)
                key = bump(e, k, j)
                ref[key] = cf_add(ref.get(key, CF0), cf_mul(x, w))
        assert f.shift_var(k, c).terms == clean(ref)

    @given(multi(), st.integers(0, 1), st.one_of(st.integers(-3, 3), wide_scalars()))
    def test_mul_linear_var(self, f, k, root):
        ref: dict[tuple[int, ...], CF] = {}
        for e, x in ref_terms(f).items():
            up = bump(e, k, e[k] + 1)
            ref[up] = cf_add(ref.get(up, CF0), x)
            ref[e] = cf_sub(ref.get(e, CF0), cf_mul(x, cf(root)))
        assert f.mul_linear_var(k, root).terms == clean(ref)

    def test_mul_linear_var_cancels(self):
        # (t1 + 2) * (t1 - 2) leaves no t1 term behind
        f = MultiPolynomial(1, {(1,): 1, (0,): 2})
        assert f.mul_linear_var(0, 2).terms == {(2,): scalar(1), (0,): scalar(-4)}


# -- sparse elimination ------------------------------------------------------------------


def ref_rref(vectors: list[list[CF]]) -> list[list[CF]]:
    """Reduced row-echelon form of the span, pivots scaled to 1."""
    rows: list[list[CF]] = []
    for v in vectors:
        v = list(v)
        for row in rows:
            p = next(k for k, c in enumerate(row) if c != CF0)
            c = v[p]
            if c != CF0:
                v = [cf_sub(a, cf_mul(c, b)) for a, b in zip(v, row)]
        p = next((k for k, c in enumerate(v) if c != CF0), None)
        if p is None:
            continue
        v = [cf_div(a, v[p]) for a in v]
        rows = [
            [cf_sub(a, cf_mul(row[p], b)) for a, b in zip(row, v)] if row[p] != CF0 else row
            for row in rows
        ]
        rows.append(v)
    rows.sort(key=lambda r: next(k for k, c in enumerate(r) if c != CF0))
    return rows


@st.composite
def vector_lists(draw):
    ncols = draw(st.integers(1, 6))
    entries = st.one_of(st.just(GaussianRational(0)), wide_scalars())
    vectors = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7))
    # add combinations of earlier vectors, which must reduce to zero
    if len(vectors) >= 2:
        a, b = vectors[0], vectors[1]
        vectors.append([x + y * 3 for x, y in zip(a, b)])
    return ncols, vectors


class TestSparseElimination:
    @settings(deadline=None)
    @given(vector_lists())
    def test_rref_and_rank(self, drawn):
        ncols, vectors = drawn
        basis = SpanBasis(ncols)
        grew = [basis.insert(v) for v in vectors]
        ref = ref_rref([[cf(x) for x in v] for v in vectors])
        assert basis.rank == len(ref) == sum(grew)
        assert basis.pivots == [next(k for k, c in enumerate(r) if c != CF0) for r in ref]
        assert basis.rows == [[GaussianRational(*x) for x in row] for row in ref]
        assert all(basis.contains(v) for v in vectors)
