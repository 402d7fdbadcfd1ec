"""Exact Gaussian elimination over Q(i): span maintenance for the probes.

A SpanBasis is kept in reduced row-echelon form (pivots 1, pivot columns
cleared elsewhere, strictly increasing pivot positions), so rank and
membership queries are exact and canonical.
"""

from __future__ import annotations

from itertools import product

from .errors import DegreeOverflowError, DimensionMismatchError
from .polynomials import MultiPolynomial, Polynomial
from .scalars import GaussianRational, ONE, ZERO

__all__ = ["SpanBasis", "VectorWindow"]

Vector = list[GaussianRational]


class SpanBasis:
    """A subspace of Q(i)^n in reduced row-echelon form.

    Each row keeps the sorted list of its nonzero columns, so elimination
    touches only those entries.
    """

    def __init__(self, ncols: int):
        if ncols < 1:
            raise ValueError("need at least one column")
        self.ncols = ncols
        self.rows: list[Vector] = []
        self.pivots: list[int] = []
        self._support: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _check_dim(self, v: Vector) -> None:
        if len(v) != self.ncols:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in a span of column dimension {self.ncols}"
            )

    def _reduce(self, v: Vector) -> Vector:
        v = list(v)
        for row, p, support in zip(self.rows, self.pivots, self._support):
            c = v[p]
            if c.a or c.b:  # c != 0, without a __bool__ call per row
                for k in support:
                    v[k] = v[k] - c * row[k]
        return v

    def insert(self, v: Vector) -> bool:
        """Add v to the span; returns True iff the rank grew."""
        self._check_dim(v)
        r = self._reduce(v)
        support = [k for k, c in enumerate(r) if c.a or c.b]
        if not support:
            return False
        p = support[0]
        inv = r[p].inverse()
        for k in support:
            r[k] = r[k] * inv
        # clear the new pivot column from the existing rows
        for idx, row in enumerate(self.rows):
            c = row[p]
            if c:
                for k in support:
                    row[k] = row[k] - c * r[k]
                merged = sorted(set(self._support[idx]).union(support))
                self._support[idx] = [k for k in merged if row[k]]
        at = next((idx for idx, piv in enumerate(self.pivots) if piv > p), len(self.pivots))
        self.rows.insert(at, r)
        self.pivots.insert(at, p)
        self._support.insert(at, support)
        return True

    def contains(self, v: Vector) -> bool:
        self._check_dim(v)
        return all(not c for c in self._reduce(v))


def window_monomials(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Degree-lex list of all exponent vectors with entries <= max_degree."""
    return sorted(product(range(max_degree + 1), repeat=nvars), key=lambda e: (sum(e), e))


class VectorWindow:
    """Fixed monomial window used to vectorize polynomials, with its staging layout.

    Univariate: coefficients of 1, t, ..., t^D.  Multivariate: all
    monomials with every exponent <= D, enumerated in degree-lex order
    (``monomials``).  Polynomials reaching outside the window raise
    DegreeOverflowError; callers must discard such values rather than
    truncate them.

    A closure probe collects action images in a one-degree-larger staging
    window (one extra degree per variable always suffices, because every
    action raises at most one slot's degree by one).  ``ext_vector`` gives
    staging coordinates, ``ext_dim`` of them, permuted so the ``n_outside``
    outside-the-window monomials come first: in a reduced row-echelon
    span, the rows whose pivot lies in the inside region then have zero
    outside part, so they form an exact basis of

        span(collected images)  intersect  window,

    and ``window_poly`` rebuilds the polynomial of such a row's inside
    tail.  Keeping that intersection, rather than only the raw images
    that happen to fit, matters: a raw image is a sum over tensor slots
    and one slot can overflow while a linear combination of images (an
    action of a combination of box generators, hence still a submodule
    member) stays inside.
    """

    def __init__(self, max_degree: int, nvars: int = 1):
        if max_degree < 1:
            raise ValueError("window degree must be >= 1")
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.max_degree = max_degree
        self.nvars = nvars
        self.monomials = window_monomials(nvars, max_degree)
        self.dim = len(self.monomials)
        self._index = {e: k for k, e in enumerate(self.monomials)}
        outside = [e for e in window_monomials(nvars, max_degree + 1) if e not in self._index]
        self.n_outside = len(outside)
        self.ext_dim = self.n_outside + self.dim
        self._ext_index = {e: k for k, e in enumerate(outside + self.monomials)}

    def _coords(self, f: "Polynomial | MultiPolynomial", index: dict, degree: int) -> Vector:
        """Coefficients of f at the positions index gives its monomials (exponents <= degree)."""
        v = [ZERO] * len(index)
        if self.nvars == 1:
            if isinstance(f, MultiPolynomial):
                f = f.to_polynomial()
            try:
                for k, c in enumerate(f.coeffs):
                    v[index[(k,)]] = c
            except KeyError:
                raise DegreeOverflowError(
                    f"degree {f.degree} exceeds window degree {degree}"
                ) from None
            return v
        if isinstance(f, Polynomial):
            f = MultiPolynomial.from_polynomial(f, self.nvars)
        if f.nvars != self.nvars:
            raise DimensionMismatchError(
                f"polynomial in {f.nvars} variables, window has {self.nvars}"
            )
        try:
            for e, c in f.terms.items():
                v[index[e]] = c
        except KeyError as exc:
            raise DegreeOverflowError(
                f"monomial exponents {exc.args[0]} exceed window degree {degree}"
            ) from None
        return v

    def vector_of(self, f: "Polynomial | MultiPolynomial") -> Vector:
        return self._coords(f, self._index, self.max_degree)

    def ext_vector(self, f: "Polynomial | MultiPolynomial") -> Vector:
        """Staging coordinates of f: outside-the-window monomials first."""
        return self._coords(f, self._ext_index, self.max_degree + 1)

    def window_poly(self, tail: Vector) -> "Polynomial | MultiPolynomial":
        """Rebuild the polynomial of an inside-region row tail; the window bounds its degree."""
        if self.nvars == 1:
            return Polynomial._from_scalars(tail)
        return MultiPolynomial._from_scalars(self.nvars, dict(zip(self.monomials, tail)))

    def monomial(self, idx: int) -> "Polynomial | MultiPolynomial":
        """The idx-th window monomial as a polynomial; the window bounds its degree."""
        if self.nvars == 1:
            return Polynomial._from_scalars((ZERO,) * idx + (ONE,))
        return MultiPolynomial._from_scalars(self.nvars, {self.monomials[idx]: ONE})

    def missing_monomial(self, basis: SpanBasis) -> "Polynomial | MultiPolynomial | None":
        """A window monomial outside the span (a coset witness), if any."""
        for idx in range(self.dim):
            v = [ZERO] * self.dim
            v[idx] = ONE
            if not basis.contains(v):
                return self.monomial(idx)
        return None
