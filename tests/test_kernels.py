"""Differential tests of the integer kernels against a Fraction-pair reference.

The scalar fast paths, the integer polynomial kernels (shift, mul_linear,
scale, +, -, shift_var, mul_linear_var and the fused rank-one action
behind act_basis) and the sparse elimination in SpanBasis, fed scalar
lists or Gaussian-integer numerator maps, are compared with textbook
arithmetic on pairs of Fractions written here, independent
of the package.  Coefficients include values wider than 64 bits, zeros,
and terms that cancel.  The integer storage of the polynomials is checked
for its canonical form, its read-only views and the agreement of == and
hash across construction routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import (
    LOOP,
    GaussianRational,
    I,
    IndexBox,
    MultiPolynomial,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ONE,
    Polynomial,
    SpanBasis,
    TensorOmega,
    VectorWindow,
    parse_polynomial,
    scalar,
)

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


gaussian_ints = st.tuples(wide_ints, wide_ints).filter(any)


def numerator_map(v: list[GaussianRational], k: tuple[int, int]) -> dict[int, tuple[int, int]]:
    """(k[0] + k[1]*i) * den * v as a map of Gaussian-integer numerators, den the lcm of v's denominators."""
    parts = [cf(x) for x in v]
    den = 1
    for re, im in parts:
        den = den * re.denominator // gcd(den, re.denominator)
        den = den * im.denominator // gcd(den, im.denominator)
    out = {}
    for col, (re, im) in enumerate(parts):
        a, b = int(re * den), int(im * den)
        a, b = a * k[0] - b * k[1], a * k[1] + b * k[0]
        if a or b:
            out[col] = (a, b)
    return out


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

    @settings(deadline=None)
    @given(vector_lists(), st.data())
    def test_numerator_maps_match_scalar_lists(self, drawn, data):
        # a map is a nonzero Gaussian-integer multiple of the vector; only its direction counts
        ncols, vectors = drawn
        target = data.draw(st.lists(wide_scalars(), min_size=ncols, max_size=ncols))
        scalars_in, maps_in = SpanBasis(ncols), SpanBasis(ncols)
        for v in vectors:
            grew = scalars_in.insert(v)
            assert maps_in.insert(numerator_map(v, data.draw(gaussian_ints))) == grew
        ref = ref_rref([[cf(x) for x in v] for v in vectors])
        assert maps_in.pivots == scalars_in.pivots
        assert maps_in.pivots == [next(k for k, c in enumerate(r) if c != CF0) for r in ref]
        assert maps_in.rows == scalars_in.rows == [[GaussianRational(*x) for x in row] for row in ref]
        for row, p in zip(maps_in.num_rows, maps_in.pivots):
            # primitive rows over the pivot's numerator (den, 0), den > 0
            assert min(row) == p and row[p][0] > 0 and row[p][1] == 0
            assert gcd(*[x for pair in row.values() for x in pair]) == 1 and all(map(any, row.values()))
        assert all(maps_in.contains(numerator_map(v, data.draw(gaussian_ints))) for v in vectors)
        inside = len(ref_rref([[cf(x) for x in v] for v in vectors + [target]])) == len(ref)
        assert maps_in.contains(numerator_map(target, data.draw(gaussian_ints))) == inside
        assert scalars_in.contains(target) == inside

    @settings(deadline=None)
    @given(vector_lists())
    def test_rows_view_builds_each_row(self, drawn):
        ncols, vectors = drawn
        basis = SpanBasis(ncols)
        for v in vectors:
            basis.insert(v)
        rows = list(basis.rows)
        assert len(basis.rows) == len(rows) == basis.rank
        for k in range(-basis.rank, basis.rank):
            assert basis.rows[k] == rows[k]
        assert basis.rows[1:] == rows[1:]


# -- integer storage: canonical form, views, == and hash -------------------------


def canonical(p: Polynomial) -> bool:
    """(re, im, den): equal-length int tuples, no trailing zero pair, den > 0, gcd 1."""
    re, im, den = p._re, p._im, p._den
    if not re:
        return im == () and den == 1
    return (
        type(re) is tuple
        and type(im) is tuple
        and len(re) == len(im)
        and den > 0
        and bool(re[-1] or im[-1])
        and gcd(den, *re, *im) == 1
    )


def canonical_multi(f: MultiPolynomial) -> bool:
    num, den = f._num, f._den
    if not num:
        return den == 1
    pairs = list(num.values())
    return (
        den > 0
        and all(len(e) == f.nvars for e in num)
        and all(a or b for a, b in pairs)
        and gcd(den, *[a for a, _ in pairs], *[b for _, b in pairs]) == 1
    )


nonzero_scalars = wide_scalars().filter(bool)
# the paper's grid (i makes purely imaginary entries and shifts), then wide values
parameters = st.one_of(st.sampled_from((scalar(2), scalar("1/2"), scalar(-1), I, -I)), nonzero_scalars)


class TestPolynomialStorage:
    @settings(deadline=None)
    @given(coeff_lists, coeff_lists, wide_scalars())
    def test_canonical_after_every_operation(self, xs, ys, c):
        f, g = Polynomial(xs), Polynomial(ys)
        results = [f, g, f + g, f - g, g - f, f * g, -f, f - f, f.scale(c), f.shift(c), f.mul_linear(c)]
        results += [f.divide_linear(c)[0], parse_polynomial(str(f)), Polynomial(list(f.coeffs) + [0])]
        results += [Polynomial(VectorWindow(8).vector_of(f))]  # the window round trip
        assert all(canonical(p) for p in results)
        assert results[-1] == f

    @given(coeff_lists)
    def test_views_match_the_reference(self, xs):
        f = Polynomial(xs)
        ref = trim([cf(x) for x in xs])
        assert same(f, ref)
        assert type(f.coeffs) is tuple
        assert f.degree == (len(ref) - 1 if ref else None)
        assert bool(f) == bool(ref) == (not f.is_zero)
        assert cf(f.constant_term) == (ref[0] if ref else CF0)
        if ref:
            assert cf(f.leading) == ref[-1]

    @settings(deadline=None)
    @given(coeff_lists, coeff_lists, nonzero_scalars)
    def test_eq_and_hash_agree_across_routes(self, xs, ys, c):
        f, g = Polynomial(xs), Polynomial(ys)
        routes = [
            Polynomial._raw(f._re, f._im, f._den),
            Polynomial(list(f.coeffs) + [0, 0]),
            parse_polynomial(str(f)),
            (f + g) - g,
            f.scale(c).scale(c.inverse()),
            f.shift(c).shift(-c),
            f.mul_linear(c).divide_linear(c)[0],
            MultiPolynomial.from_polynomial(f).to_polynomial(),
        ]
        for p in routes:
            assert p == f and hash(p) == hash(f)
        assert f + P_ONE != f

    @settings(deadline=None, max_examples=40)
    @given(multi(3), multi(3), nonzero_scalars, st.integers(0, 2))
    def test_multi_storage(self, f, g, c, k):
        for p in (f, g, f + g, f - g, f * g, -f, f.scale(c), f.shift_var(k, c), f.mul_linear_var(k, c)):
            assert canonical_multi(p)
        assert {e: cf(x) for e, x in f.terms.items()} == {e: cf(x) for e, x in f.terms.items() if x}
        view = f.terms
        view.clear()  # a view: changing it leaves the polynomial alone
        assert f.terms or f.is_zero
        routes = [
            MultiPolynomial(3, f.terms),
            (f + g) - g,
            f.scale(c).scale(c.inverse()),
            f.shift_var(k, c).shift_var(k, -c),
            MultiPolynomial._raw(3, dict(f._num), f._den),
        ]
        for p in routes:
            assert p == f and hash(p) == hash(f)
        assert cf(f.constant_term) == cf(f.terms.get((0, 0, 0), GaussianRational(0)))


# -- the fused rank-one action --------------------------------------------------------


def ref_mul(xs: list[CF], ys: list[CF]) -> list[CF]:
    out = [CF0] * max(len(xs) + len(ys) - 1, 0)
    for j, x in enumerate(xs):
        for k, y in enumerate(ys):
            out[j + k] = cf_add(out[j + k], cf_mul(x, y))
    return trim(out)


def shift_of(spec, sym) -> GaussianRational:
    """s_x: m*q for the Block families, the first index otherwise; 0 for central symbols."""
    if sym[0] == "C":
        return scalar(0)
    q = getattr(spec, "q", None)
    return scalar(sym[1]) if q is None else q * sym[1]


def composed(f, rule):
    """The unfused rule: f(t - s), times (t - root), times lead."""
    if not rule:
        return Polynomial()
    shift, root, lead = rule[:3]
    g = f.shift(shift)
    return (g if root is None else g.mul_linear(root)).scale(lead)


BLOCK_Q = (scalar(2), scalar("1/2"), scalar("-3/2"), GaussianRational(Fraction(1, 2), 1))


@st.composite
def rank_one_specs(draw):
    kind = draw(st.sampled_from(("vir", "loop", "block", "hv")))
    lam, mu, alpha, beta = draw(parameters), draw(parameters), draw(wide_scalars()), draw(wide_scalars())
    if kind == "vir":
        return OmegaVir(lam, alpha), IndexBox((-3, 3))
    if kind == "loop":
        return OmegaLoop(lam, mu, alpha), IndexBox((-2, 2), (-2, 2))
    if kind == "block":
        return OmegaBlock(draw(st.sampled_from(BLOCK_Q)), lam, alpha), IndexBox((-3, 3), (0, 2))
    return OmegaBlockHV(lam, alpha, beta), IndexBox((-3, 3), (0, 2))


class TestFusedRankOne:
    @settings(deadline=None, max_examples=60)
    @given(rank_one_specs(), coeff_lists, st.data())
    def test_act_basis_matches_composition_and_reference(self, drawn, cs, data):
        spec, box = drawn
        sym = data.draw(st.sampled_from(spec.algebra.symbols_in_box(box)))
        f = Polynomial(cs)
        got = spec.act_basis(sym, f)
        assert canonical(got)
        assert got == composed(f, spec._rule(sym))
        entry = [cf(x) for x in spec.entry(sym).coeffs]
        ref = ref_mul(ref_shift([cf(x) for x in f.coeffs], cf(shift_of(spec, sym))), entry)
        assert same(got, ref)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.tuples(parameters, parameters, wide_scalars()), min_size=3, max_size=3),
        multi(3),
        st.sampled_from(LOOP.symbols_in_box(IndexBox((-1, 1), (-1, 1)))),
    )
    def test_tensor_slots_match_composition_and_reference(self, factors, f, sym):
        spec = TensorOmega(factors)
        got = spec.act_basis(sym, f)
        assert canonical_multi(got)
        unfused = MultiPolynomial(3)
        ref: dict[tuple[int, ...], CF] = {}
        for k, factor in enumerate(spec.factors):
            rule = factor._rule(sym)
            if not rule:
                continue
            shift, root, lead = rule[:3]
            unfused = unfused + f.shift_var(k, shift).mul_linear_var(k, root).scale(lead)
            # reference: shift the t_k column of every monomial, then multiply by x . 1 in t_k
            entry = [cf(x) for x in factor.entry(sym).coeffs]
            for e, x in ref_terms(f).items():
                col = [CF0] * e[k] + [x]
                for j, y in enumerate(ref_mul(ref_shift(col, cf(shift)), entry)):
                    key = bump(e, k, j)
                    ref[key] = cf_add(ref.get(key, CF0), y)
        assert got == unfused
        assert got.terms == clean(ref)
