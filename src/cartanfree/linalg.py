"""Exact Gaussian elimination over Q(i): span maintenance for the probes.

A SpanBasis is kept in reduced row-echelon form (pivots 1, pivot columns
cleared elsewhere, strictly increasing pivot positions), so rank and
membership queries are exact and canonical.

Storage.  A row is a sparse map from each of its nonzero columns to a
pair (re, im) of Gaussian-integer numerators over one positive row
denominator, which is the pivot's numerator: the pivot entry is
(den, 0).  Each row is primitive, gcd(den, every numerator) = 1, which
makes the map the unique integer form of the canonical row, and it is
divided by its content again after every update.  Elimination is
fraction-free in the spirit of Bareiss: a vector is cleared at the
pivots it holds by integer multiples of their rows, with no division
per entry.  It visits only those pivots, because reducing by the row
of pivot p never brings in another pivot column.  Vectors enter either
as lists of GaussianRational, converted once over their common
denominator, or as numerator maps, whose scale does not matter.
``num_rows`` gives the maps themselves, ``kernel`` a null-space basis read
off them, and ``rows`` the GaussianRational view of the form, built one
row per access (tests and the benchmark read it; no program code does).
``identity`` gives the whole space in this form, with no elimination.

``VectorWindow`` reads the staging maps of probe vectors and operator
columns straight from the integer storage of ``Polynomial`` and
``MultiPolynomial``; it never builds a polynomial back from a row, so a
probe closure makes no GaussianRational and no frontier polynomial.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import product
from math import gcd, lcm

from .errors import DegreeOverflowError, DimensionMismatchError, WindowBudgetError
from .polynomials import WINDOW_CAP, MultiPolynomial, Polynomial, _t_power
from .scalars import GaussianRational, ZERO

__all__ = ["SpanBasis", "VectorWindow"]

Vector = list[GaussianRational]
Numerators = dict[int, tuple[int, int]]
_make = GaussianRational._make


def _primitive(num: Numerators) -> Numerators:
    """num divided by the gcd of all its integers (num nonzero)."""
    g = 0
    for a, b in num.values():
        g = gcd(g, a, b)
        if g == 1:
            return num
    return {k: (a // g, b // g) for k, (a, b) in num.items()}


def _clear(rest: Numerators, hits: list[tuple[Numerators, int, tuple[int, int]]]) -> Numerators:
    """Clear a vector at the pivots of rows; returns a positive integer multiple, without zeros.

    The vector is rest plus the entry x at each hit (row, p, x), where row
    is a primitive row with pivot p and the rows hold zeros at each
    other's pivots.  So x / den_p is the exact coefficient of row p, and
    v - sum x / den_p * row comes out, times the lcm L of the reduced
    denominators, in one integer pass over the rows' other entries.
    """
    steps = []
    L = 1
    for row, p, (ca, cb) in hits:
        d = row[p][0]
        g = gcd(d, ca, cb)
        if g != 1:
            d, ca, cb = d // g, ca // g, cb // g
        steps.append((row, p, d, ca, cb))
        L = lcm(L, d)
    out = rest if L == 1 else {k: (a * L, b * L) for k, (a, b) in rest.items()}
    get = out.get
    for row, p, d, ca, cb in steps:
        if d != L:
            m = L // d
            ca, cb = ca * m, cb * m
        for k, (ra, rb) in row.items():
            if k != p:
                x = get(k, (0, 0))
                out[k] = (x[0] - ca * ra + cb * rb, x[1] - ca * rb - cb * ra)
    return {k: x for k, x in out.items() if x[0] or x[1]}


class _Rows(Sequence):
    """The rows of a SpanBasis as canonical GaussianRational lists, one row built per access."""

    __slots__ = ("_basis",)

    def __init__(self, basis: "SpanBasis"):
        self._basis = basis

    def __len__(self) -> int:
        return len(self._basis.pivots)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(len(self)))]
        basis = self._basis
        p = basis.pivots[k]
        row = basis._by_pivot[p]
        den = row[p][0]
        out = [ZERO] * basis.ncols
        for col, (a, b) in row.items():
            out[col] = _make(a, b, den)
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _Rows)):
            return list(self) == list(other)
        return NotImplemented


class SpanBasis:
    """A subspace of Q(i)^n in reduced row-echelon form, on primitive integer rows.

    ``pivots`` lists the pivot columns in increasing order.  ``num_rows``
    holds, in the same order, each row's map from its nonzero columns to
    Gaussian-integer numerators (re, im); the pivot's numerator (den, 0)
    is the row's denominator.  ``rows`` is the canonical GaussianRational
    view of the same rows.  ``insert`` and ``contains`` take a list of
    ncols GaussianRationals or a numerator map, whose keys are columns
    below ncols and whose pairs are nonzero; only the map's direction
    matters, so it may be any nonzero multiple of the vector meant.
    Neither changes the map it is given, and an update replaces a row's
    map rather than changing it.
    """

    def __init__(self, ncols: int):
        if ncols < 1:
            raise ValueError("need at least one column")
        self.ncols = ncols
        self.pivots: list[int] = []
        self._by_pivot: dict[int, Numerators] = {}

    @classmethod
    def identity(cls, ncols: int) -> "SpanBasis":
        """The whole space: pivot k with the unit row {k: (1, 0)} for every column, no elimination run."""
        basis = cls(ncols)
        basis.pivots = list(range(ncols))
        basis._by_pivot = {k: {k: (1, 0)} for k in range(ncols)}
        return basis

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> _Rows:
        return _Rows(self)

    @property
    def num_rows(self) -> list[Numerators]:
        return [self._by_pivot[p] for p in self.pivots]

    def _numerators(self, v: "Vector | Numerators") -> Numerators:
        if isinstance(v, dict):
            return v
        if len(v) != self.ncols:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in a span of column dimension {self.ncols}"
            )
        den = lcm(*[c.d for c in v])
        return {k: (c.a * (den // c.d), c.b * (den // c.d)) for k, c in enumerate(v) if c.a or c.b}

    def _reduce(self, v: Numerators) -> Numerators:
        """A new map: a multiple of v with its part in the span removed.

        A unit row (the pivot alone) only drops its column; only the other
        rows that v meets at their pivots take arithmetic.
        """
        by_pivot = self._by_pivot
        rest: Numerators = {}
        hits = []
        for p, x in v.items():
            row = by_pivot.get(p)
            if row is None:
                rest[p] = x
            elif len(row) > 1:
                hits.append((row, p, x))
        return _clear(rest, hits) if hits else rest

    def insert(self, v: "Vector | Numerators") -> bool:
        """Add v to the span; returns True iff the rank grew."""
        r = self._reduce(self._numerators(v))
        if not r:
            return False
        p = min(r)
        a, b = r[p]
        if b:  # times the conjugate of the pivot entry, which becomes a*a + b*b
            r = {k: (x * a + y * b, y * a - x * b) for k, (x, y) in r.items()}
        elif a < 0:
            r = {k: (-x, -y) for k, (x, y) in r.items()}
        r = _primitive(r)
        # clear the new pivot column from the rows above it (only they can hold it)
        by_pivot = self._by_pivot
        at = bisect_left(self.pivots, p)
        for q in self.pivots[:at]:
            row = by_pivot[q]
            x = row.get(p)
            if x is not None:
                rest = {k: y for k, y in row.items() if k != p}
                by_pivot[q] = _primitive(_clear(rest, [(r, p, x)]))
        self.pivots.insert(at, p)
        by_pivot[p] = r
        return True

    def contains(self, v: "Vector | Numerators") -> bool:
        return not self._reduce(self._numerators(v))

    def kernel(self) -> list[tuple[int, Numerators]]:
        """A basis of the null space of the rows: one (f, x) per non-pivot column f, in column order.

        x is read off the reduced rows with no further elimination: it is
        the primitive integer map with x_f > 0, x_p = -x_f * row_p[f] / row_p[p]
        at each pivot p whose row holds f, and 0 elsewhere.
        """
        by_pivot = self._by_pivot
        out = []
        for f in range(self.ncols):
            if f not in by_pivot:
                hits = [(p, by_pivot[p]) for p in self.pivots if f in by_pivot[p]]
                xf = lcm(*[row[p][0] for p, row in hits])
                x = {f: (xf, 0)}
                for p, row in hits:
                    m, (a, b) = xf // row[p][0], row[f]
                    x[p] = (-a * m, -b * m)
                out.append((f, _primitive(x)))
        return out


def window_monomials(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Degree-lex list of all exponent vectors with entries <= max_degree."""
    return sorted(product(range(max_degree + 1), repeat=nvars), key=lambda e: (sum(e), e))


class VectorWindow:
    """Fixed monomial window used to vectorize polynomials, with its staging layout.

    Univariate: coefficients of 1, t, ..., t^D.  Multivariate: all
    monomials with every exponent <= D, enumerated in degree-lex order
    (``monomials``).  Polynomials reaching outside the window raise
    DegreeOverflowError; callers must discard such values rather than
    truncate them.  A window of more than ``WINDOW_CAP`` monomials,
    (D + 1)^m in m variables, raises WindowBudgetError before any
    monomial is listed.

    A closure probe keeps its seed and every action image in one basis
    over a one-degree-larger staging window (one extra degree per
    variable always suffices, because every action raises at most one
    slot's degree by one).  ``ext_vector`` gives a polynomial's staging
    numerator map and its denominator, read from the integer storage,
    with the columns permuted so the ``n_outside`` outside-the-window
    monomials come first (``ext_dim`` columns in all): in a reduced
    row-echelon span, the rows whose pivot lies in the inside region then
    have zero outside part, so they form an exact basis of

        span(seed and images)  intersect  window,

    which is the probe's closure.  Keeping that intersection, rather than
    only the raw images that happen to fit, matters: a raw image is a sum
    over tensor slots and one slot can overflow while a linear
    combination of images (an action of a combination of box generators,
    hence still a submodule member) stays inside.  No row is turned back
    into a polynomial: a probe acts on an inside row through the staging
    maps of the operators' images of the window monomials
    (``ext_column``, for a whole generator or for some of its slots),
    combined with the row's entries.
    """

    def __init__(self, max_degree: int, nvars: int = 1):
        if max_degree < 1:
            raise ValueError("window degree must be >= 1")
        if nvars < 1:
            raise ValueError("need at least one variable")
        if (max_degree + 1) ** nvars > WINDOW_CAP:
            raise WindowBudgetError(
                f"a window of degree {max_degree} in {nvars} variable(s) holds "
                f"{max_degree + 1}^{nvars} monomials, over the budget of {WINDOW_CAP}"
            )
        self.max_degree = max_degree
        self.nvars = nvars
        self.monomials = window_monomials(nvars, max_degree)
        self.dim = len(self.monomials)
        index = {e: k for k, e in enumerate(self.monomials)}
        outside = [e for e in window_monomials(nvars, max_degree + 1) if e not in index]
        self.n_outside = len(outside)
        self.ext_dim = self.n_outside + self.dim
        ext_index = self._ext_at = {e: k for k, e in enumerate(outside + self.monomials)}
        if nvars == 1:  # univariate coefficients are looked up by degree
            index = [index[(k,)] for k in range(len(index))]
            ext_index = [ext_index[(k,)] for k in range(len(ext_index))]
        self._index, self._ext_index = index, ext_index

    def _numerators(self, f: "Polynomial | MultiPolynomial", index, degree: int) -> tuple[dict, int]:
        """f's numerators at the columns index gives its monomials (exponents <= degree), and den."""
        if self.nvars == 1:
            if isinstance(f, MultiPolynomial):
                f = f.to_polynomial()
            if len(f._re) > len(index):
                raise DegreeOverflowError(f"degree {f.degree} exceeds window degree {degree}")
            return {index[k]: (a, b) for k, (a, b) in enumerate(zip(f._re, f._im)) if a or b}, f._den
        if isinstance(f, Polynomial):
            f = MultiPolynomial.from_polynomial(f, self.nvars)
        if f.nvars != self.nvars:
            raise DimensionMismatchError(
                f"polynomial in {f.nvars} variables, window has {self.nvars}"
            )
        try:
            return {index[e]: pair for e, pair in f._num.items()}, f._den
        except KeyError as exc:
            raise DegreeOverflowError(
                f"monomial exponents {exc.args[0]} exceed window degree {degree}"
            ) from None

    def vector_of(self, f: "Polynomial | MultiPolynomial") -> Vector:
        """Window coordinates of f as GaussianRationals."""
        num, den = self._numerators(f, self._index, self.max_degree)
        v = [ZERO] * self.dim
        for k, (a, b) in num.items():
            v[k] = _make(a, b, den)
        return v

    def ext_vector(self, f: "Polynomial | MultiPolynomial") -> tuple[Numerators, int]:
        """Staging numerator map of f (outside-the-window monomials first) and its denominator."""
        return self._numerators(f, self._ext_index, self.max_degree + 1)

    def ext_column(self, idx: int, slot_images: Sequence[tuple[int, Polynomial]]) -> tuple[Numerators, int]:
        """Staging numerator map and denominator of an operator that acts slot by slot,
        applied to the idx-th window monomial.

        slot_images holds a pair (s, p) for each slot s the operator acts
        in, any subset of the slots: p is the operator's slot-s image of
        t^e, for e the monomial's exponent in slot s (a univariate
        polynomial of degree <= max_degree + 1); it stands in t_s, times
        the monomial's factors outside slot s, and the slots add up (the
        Leibniz rule).  A one-slot operator's column thus lies on the
        monomial's slot-s line.  Two slots meet only at the monomial itself
        (t_s^j with j its own exponent).  In one variable the column is the
        one slot image's own staging map (``ext_vector``, read by degree).
        """
        if self.nvars == 1:
            return self.ext_vector(slot_images[0][1])
        mono = self.monomials[idx]
        at = self._ext_at
        den = lcm(*[p._den for _, p in slot_images])
        out: Numerators = {}
        sa = sb = 0  # the coefficient of the monomial itself
        for s, p in slot_images:
            w = den // p._den
            e = mono[s]
            head, tail = mono[:s], mono[s + 1:]
            for j, (a, b) in enumerate(zip(p._re, p._im)):
                if j == e:
                    sa, sb = sa + a * w, sb + b * w
                elif a or b:
                    out[at[head + (j,) + tail]] = (a * w, b * w)
        if sa or sb:
            out[at[mono]] = (sa, sb)
        return out, den

    def monomial(self, idx: int) -> "Polynomial | MultiPolynomial":
        """The idx-th window monomial as a polynomial; the window bounds its degree."""
        if self.nvars == 1:
            return _t_power(idx)
        return MultiPolynomial._raw(self.nvars, {self.monomials[idx]: (1, 0)}, 1)

    def missing_monomial(self, basis: SpanBasis) -> "Polynomial | MultiPolynomial | None":
        """A window monomial outside the span (a coset witness), if any.

        In reduced row-echelon form the unit vector e_idx lies in the span
        iff idx is a pivot whose row is e_idx itself, so the witness is the
        first window index that is not the pivot of a unit row.
        """
        units = {p for p, row in zip(basis.pivots, basis.num_rows) if len(row) == 1}
        idx = next((k for k in range(self.dim) if k not in units), None)
        return None if idx is None else self.monomial(idx)
