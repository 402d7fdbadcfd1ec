"""Exact Gaussian elimination over Q(i): span maintenance for the probes.

A SpanBasis is kept in reduced row-echelon form (pivots 1, pivot columns
cleared elsewhere, strictly increasing pivot positions), so rank and
membership queries are exact and canonical.
"""

from __future__ import annotations

from .errors import DegreeOverflowError, DimensionMismatchError
from .polynomials import MultiPolynomial, Polynomial, window_monomials
from .scalars import GaussianRational, ONE, ZERO

__all__ = ["SpanBasis", "VectorWindow", "poly_to_vector"]

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


class VectorWindow:
    """Fixed monomial window used to vectorize polynomials.

    Univariate: coefficients of 1, t, ..., t^D.  Multivariate: all
    monomials with every exponent <= D, enumerated in degree-lex order.
    Polynomials reaching outside the window raise DegreeOverflowError;
    callers must discard such values rather than truncate them.
    """

    def __init__(self, max_degree: int, nvars: int = 1):
        if max_degree < 1:
            raise ValueError("window degree must be >= 1")
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.max_degree = max_degree
        self.nvars = nvars
        if nvars == 1:
            self.dim = max_degree + 1
            self._monomials = [(k,) for k in range(self.dim)]
            self._index = {e: k for k, e in enumerate(self._monomials)}
        else:
            self._monomials = list(window_monomials(nvars, max_degree))
            self._index = {e: k for k, e in enumerate(self._monomials)}
            self.dim = len(self._monomials)

    def vector_of(self, f: "Polynomial | MultiPolynomial") -> Vector:
        if self.nvars == 1:
            if isinstance(f, MultiPolynomial):
                f = f.to_polynomial()
            if f.degree is not None and f.degree > self.max_degree:
                raise DegreeOverflowError(
                    f"degree {f.degree} exceeds window degree {self.max_degree}"
                )
            v = [ZERO] * self.dim
            for k, c in enumerate(f.coeffs):
                v[k] = c
            return v
        if isinstance(f, Polynomial):
            f = MultiPolynomial.from_polynomial(f, self.nvars)
        if f.nvars != self.nvars:
            raise DimensionMismatchError(
                f"polynomial in {f.nvars} variables, window has {self.nvars}"
            )
        v = [ZERO] * self.dim
        for e, c in f.terms.items():
            idx = self._index.get(e)
            if idx is None:
                raise DegreeOverflowError(
                    f"monomial exponents {e} exceed window degree {self.max_degree}"
                )
            v[idx] = c
        return v

    def monomial(self, idx: int) -> "Polynomial | MultiPolynomial":
        """The idx-th window monomial as a polynomial; the window bounds its degree."""
        if self.nvars == 1:
            return Polynomial._raw((ZERO,) * idx + (ONE,))
        return MultiPolynomial._raw(self.nvars, {self._monomials[idx]: ONE})

    def missing_monomial(self, basis: SpanBasis) -> "Polynomial | MultiPolynomial | None":
        """A window monomial outside the span (a coset witness), if any."""
        for idx in range(self.dim):
            v = [ZERO] * self.dim
            v[idx] = ONE
            if not basis.contains(v):
                return self.monomial(idx)
        return None


def poly_to_vector(f: "Polynomial | MultiPolynomial", max_degree: int) -> Vector:
    """Coefficient vector of f in the window of the appropriate arity."""
    nvars = f.nvars if isinstance(f, MultiPolynomial) else 1
    return VectorWindow(max_degree, nvars).vector_of(f)
