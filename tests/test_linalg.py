import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import MultiPolynomial, SpanBasis, VectorWindow, parse_polynomial, scalar
from cartanfree.errors import DegreeOverflowError, DimensionMismatchError
from cartanfree.scalars import ZERO

from conftest import oracle_solvable, scalars


def vec(*xs):
    return [scalar(x) for x in xs]


class TestSpanBasis:
    def test_insert_grows_from_empty(self):
        b = SpanBasis(3)
        assert b.insert(vec(1, 0, 2))
        assert b.rank == 1

    def test_dependent_vector_does_not_grow(self):
        b = SpanBasis(3)
        b.insert(vec(1, 0, 2))
        assert not b.insert(vec(2, 0, 4))
        assert b.rank == 1

    def test_independent_vector_grows(self):
        b = SpanBasis(3)
        b.insert(vec(1, 0, 2))
        assert b.insert(vec(0, 1, 0))
        assert b.rank == 2

    def test_contains(self):
        b = SpanBasis(2)
        b.insert(vec(1, 0))
        assert b.contains(vec(3, 0))
        assert not b.contains(vec(0, 1))
        empty = SpanBasis(2)
        assert empty.contains(vec(0, 0))

    def test_dimension_mismatch(self):
        b = SpanBasis(2)
        with pytest.raises(DimensionMismatchError):
            b.insert(vec(1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            b.contains(vec(1))

    def test_unit_vectors_reach_full_rank(self):
        b = SpanBasis(4)
        for k in range(4):
            v = [ZERO] * 4
            v[k] = scalar(1)
            assert b.insert(v)
        assert b.rank == 4
        assert not b.insert(vec(1, 2, 3, 4))

    def test_echelon_invariants(self):
        b = SpanBasis(4)
        for v in [vec(0, 2, 1, 0), vec(1, 1, 1, 1), vec(1, 3, 2, 1), vec(0, 0, 0, 5)]:
            b.insert(v)
        assert b.pivots == sorted(b.pivots)
        for row, p in zip(b.rows, b.pivots):
            assert row[p] == 1
            for other, po in zip(b.rows, b.pivots):
                if po != p:
                    assert not other[p]

    @settings(max_examples=40)
    @given(
        st.lists(st.lists(scalars(), min_size=4, max_size=4), min_size=1, max_size=6),
        st.lists(scalars(), min_size=4, max_size=4),
    )
    def test_membership_matches_bruteforce_solve(self, rows, target):
        b = SpanBasis(4)
        for r in rows:
            b.insert(list(r))
        assert b.contains(list(target)) == oracle_solvable(rows, target)

    @settings(max_examples=40)
    @given(st.lists(st.lists(scalars(), min_size=3, max_size=3), min_size=0, max_size=7))
    def test_rank_matches_bruteforce(self, rows):
        b = SpanBasis(3)
        ranks = [0]
        for r in rows:
            b.insert(list(r))
            ranks.append(b.rank)
        assert all(a <= b_ for a, b_ in zip(ranks, ranks[1:]))  # monotone
        assert b.rank <= 3
        from conftest import oracle_rank

        assert b.rank == oracle_rank(rows)


class TestVectorization:
    def test_example(self):
        assert VectorWindow(3).vector_of(parse_polynomial("2*t - 4")) == vec(-4, 2, 0, 0)

    def test_zero(self):
        assert VectorWindow(2).vector_of(parse_polynomial("0")) == vec(0, 0, 0)

    def test_overflow(self):
        with pytest.raises(DegreeOverflowError):
            VectorWindow(3).vector_of(parse_polynomial("t^4"))

    def test_multivariate_window(self):
        w = VectorWindow(2, 2)
        assert w.dim == 9
        mp = parse_polynomial("t1*t2 + 3")
        v = w.vector_of(mp)
        assert sum(1 for c in v if c) == 2
        with pytest.raises(DegreeOverflowError):
            w.vector_of(MultiPolynomial(2, {(3, 0): scalar(1)}))

    def test_window_monomial_round_trip(self):
        w = VectorWindow(2, 2)
        for idx in range(w.dim):
            v = w.vector_of(w.monomial(idx))
            assert v[idx] == 1 and sum(1 for c in v if c) == 1

    @pytest.mark.parametrize(
        "nvars,D,inside,outside", [(1, 3, "2*t^3 - t + 1", "t^4"), (2, 2, "t1^2*t2 - 3", "t1^3*t2")]
    )
    def test_staging_layout_puts_outside_monomials_first(self, nvars, D, inside, outside):
        w = VectorWindow(D, nvars)
        f, g = parse_polynomial(inside), parse_polynomial(outside)
        v = w.ext_vector(f + g)
        assert len(v) == w.ext_dim == w.n_outside + w.dim
        assert any(v[: w.n_outside])
        assert v[w.n_outside :] == w.vector_of(f)
        assert w.window_poly(v[w.n_outside :]) == f

    def test_missing_monomial_witness(self):
        w = VectorWindow(3, 1)
        b = SpanBasis(4)
        b.insert(vec(0, 1, 0, 0))
        b.insert(vec(0, 0, 0, 1))
        witness = w.missing_monomial(b)
        assert witness is not None
        assert not b.contains(w.vector_of(witness))
