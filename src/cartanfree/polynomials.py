"""Exact polynomials: dense univariate in t, sparse multivariate in t1..tm.

Univariate polynomials carry the vectors of the rank-one module families
and all action-table entries; multivariate polynomials carry vectors of
tensor-product modules.  Coefficients are Gaussian rationals throughout,
so all arithmetic is exact.

Polynomial literals follow the grammar

    poly ::= term (('+'|'-') term)*
    term ::= scalar | [scalar '*'] varpow ('*' varpow)*
    varpow ::= var ['^' uint]
    var  ::= 't' | 't' uint

e.g. ``2*t^3 - 1/2*t + 1`` (univariate) and ``t1^2*t2`` (multivariate).
Scalars bind tightly (no internal whitespace), so a complex coefficient
like ``1/2+2/3i*t`` parses as (1/2 + 2/3i)*t while ``1/2 + 2/3i*t`` is a
two-term sum.  ``str()`` output re-parses to an equal value.

The hot operations (shift, mul_linear, scale and their multivariate
forms) run as loops over integer numerators with one common denominator
and normalise each output coefficient once; coefficients stay canonical
GaussianRationals, so == and hash remain exact.

The constant degree cap ``DEGREE_CAP`` (64, per variable) bounds the
inputs: polynomials built from coefficient lists or parsed literals
(checked after like terms combine), and full products, which can double
a degree, fail loudly above it.  The rank-one kernels (shift,
mul_linear, scale and their multivariate forms) raise a degree by at
most one and leave the bound to their callers: a probe's window bounds
every vector it keeps, whatever the cap.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Union

from .errors import (
    DegreeOverflowError,
    ParseError,
    ZeroPolynomialError,
)
from .scalars import GaussianRational, ONE, ZERO, ScalarLike, _scan_uint, scalar, scan_scalar

__all__ = [
    "Polynomial",
    "MultiPolynomial",
    "T",
    "P_ZERO",
    "P_ONE",
    "constant",
    "monomial",
    "shift",
    "degree_leading",
    "parse_polynomial",
    "DEGREE_CAP",
]

DEGREE_CAP = 64
_make = GaussianRational._make


def _check_cap(deg: int) -> None:
    if deg > DEGREE_CAP:
        raise DegreeOverflowError(
            f"degree {deg} exceeds the polynomial degree cap {DEGREE_CAP}"
        )


def _parts(c: ScalarLike) -> tuple[int, int, int]:
    """(a, b, d) with c = (a + b*i)/d in lowest terms."""
    if type(c) is int:
        return c, 0, 1
    c = scalar(c)
    return c.a, c.b, c.d


def _scaled(xs: Iterable[GaussianRational], c: GaussianRational) -> list[GaussianRational]:
    """x*c for each x, each product normalised once."""
    ca, cb, cd = c.a, c.b, c.d
    if cb:
        return [_make(x.a * ca - x.b * cb, x.a * cb + x.b * ca, x.d * cd) for x in xs]
    return [_make(x.a * ca, x.b * ca, x.d * cd) for x in xs]


def _common_form(cs) -> tuple[list[int], list[int], int]:
    """Integer numerators over one common denominator: cs[k] = (re[k] + im[k]*i)/den."""
    den = lcm(*[x.d for x in cs])
    if den == 1:
        return [x.a for x in cs], [x.b for x in cs], 1
    return [x.a * (den // x.d) for x in cs], [x.b * (den // x.d) for x in cs], den


def _taylor_shift(xs: list[int], s: int) -> None:
    """In place: the coefficients of h(u) become those of h(u + s)."""
    n = len(xs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            xs[j] += s * xs[j + 1]


def _shifted(cs, cp: int, ci: int, cq: int) -> list[GaussianRational]:
    """Coefficients of f(t - c), c = (cp + ci*i)/cq, from those of f (nonempty).

    With u = cq*t and h(u) = sum A[k] cq^(n-1-k) u^k over the common
    denominator den, cq^(n-1) * f(t - c) = h(u - cp - ci*i) / den; so one
    integer Taylor shift by a Gaussian integer does the work, and output
    k is normalised once, over den * cq^(n-1-k).
    """
    n = len(cs)
    re, im, den = _common_form(cs)
    if cq != 1:
        w = 1
        for k in range(n - 1, -1, -1):
            re[k] *= w
            im[k] *= w
            w *= cq
    sp, si = -cp, -ci
    if si:
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                a, b = re[j + 1], im[j + 1]
                re[j] += sp * a - si * b
                im[j] += sp * b + si * a
    else:
        _taylor_shift(re, sp)
        if any(im):
            _taylor_shift(im, sp)
    out = [ZERO] * n
    d = den
    for k in range(n - 1, -1, -1):
        out[k] = _make(re[k], im[k], d)
        d *= cq
    return out


class Polynomial:
    """Dense univariate polynomial over Q(i).

    ``coeffs[k]`` is the coefficient of t^k; trailing zeros are stripped,
    so the zero polynomial has an empty tuple and every nonzero polynomial
    has a nonzero leading coefficient.  The degree of the zero polynomial
    is None, never a number that could leak into arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        _check_cap(len(cs) - 1)
        self.coeffs: tuple[GaussianRational, ...] = tuple(cs)

    @staticmethod
    def _raw(cs: tuple[GaussianRational, ...]) -> "Polynomial":
        """Trusted constructor: already stripped; the caller bounds the degree."""
        p = object.__new__(Polynomial)
        p.coeffs = cs
        return p

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_term(self) -> GaussianRational:
        return self.coeffs[0] if self.coeffs else ZERO

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        cs = [x + y for x, y in zip(a, b)]
        cs.extend(a[len(b):])
        cs.extend(b[len(a):])
        while cs and not cs[-1]:
            cs.pop()
        return Polynomial._raw(tuple(cs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        cs = [x - y for x, y in zip(a, b)]
        cs.extend(a[len(b):])
        cs.extend([-y for y in b[len(a):]])
        while cs and not cs[-1]:
            cs.pop()
        return Polynomial._raw(tuple(cs))

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["Polynomial", ScalarLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return P_ZERO
            _check_cap(len(self.coeffs) + len(other.coeffs) - 2)
            cs = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for j, x in enumerate(self.coeffs):
                if not x:
                    continue
                for k, y in enumerate(other.coeffs):
                    cs[j + k] = cs[j + k] + x * y
            return Polynomial._raw(tuple(cs))
        return self.scale(other)

    def __rmul__(self, other: ScalarLike) -> "Polynomial":
        return self.scale(other)

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        acc = P_ONE
        for _ in range(n):
            acc = acc * self
        return acc

    def scale(self, c: ScalarLike) -> "Polynomial":
        c = scalar(c)
        if not c.b and c.d == 1:
            if c.a == 1:
                return self
            if not c.a:
                return P_ZERO
        return Polynomial._raw(tuple(_scaled(self.coeffs, c)))

    def shift(self, c: ScalarLike) -> "Polynomial":
        """The substitution t -> t - c, i.e. return g with g(t) = f(t - c).

        Degree and leading coefficient are preserved.
        """
        if len(self.coeffs) <= 1:
            return self
        cp, ci, cq = _parts(c)
        if not (cp or ci):
            return self
        return Polynomial._raw(tuple(_shifted(self.coeffs, cp, ci, cq)))

    def mul_linear(self, root: ScalarLike) -> "Polynomial":
        """Multiply by (t - root) in O(degree) integer operations."""
        cs = self.coeffs
        if not cs:
            return P_ZERO
        rp, ri, rq = _parts(root)
        if not (rp or ri):
            return Polynomial._raw((ZERO,) + cs)
        re, im, den = _common_form(cs)
        # coefficient k of the product: (A[k-1]*rq - (rp + ri*i)*A[k]) / (den*rq)
        d = den * rq
        out = []
        pa = pb = 0
        for a, b in zip(re, im):
            out.append(_make(pa * rq - rp * a + ri * b, pb * rq - rp * b - ri * a, d))
            pa, pb = a, b
        out.append(cs[-1])
        return Polynomial._raw(tuple(out))

    def divide_linear(self, root: ScalarLike) -> tuple["Polynomial", GaussianRational]:
        """Synthetic division by (t - root): returns (quotient, remainder)."""
        root = scalar(root)
        n = len(self.coeffs) - 1
        if n < 0:
            return P_ZERO, ZERO
        if n == 0:
            return P_ZERO, self.coeffs[0]
        q: list[GaussianRational] = [ZERO] * n
        q[n - 1] = self.coeffs[n]
        for k in range(n - 1, 0, -1):
            q[k - 1] = self.coeffs[k] + root * q[k]
        rem = self.coeffs[0] + root * q[0]
        while q and not q[-1]:
            q.pop()
        return Polynomial._raw(tuple(q)), rem

    def evaluate(self, x: ScalarLike) -> GaussianRational:
        x = scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mono = None if k == 0 else ("t" if k == 1 else f"t^{k}")
            pieces.append((c, mono))
        return _render_terms(pieces)

    def __repr__(self) -> str:
        return f"poly({str(self)!r})"


def _render_term(c: GaussianRational, mono: str | None) -> str:
    if mono is None:
        return str(c)
    if c == 1:
        return mono
    return f"{c}*{mono}"


def _render_terms(pieces: list[tuple[GaussianRational, str | None]]) -> str:
    out = [_render_term(*pieces[0])]
    for c, mono in pieces[1:]:
        s = str(c)
        if s.startswith("-") and str(-c) == s[1:]:
            out.append(" - " + _render_term(-c, mono))
        else:
            out.append(" + " + _render_term(c, mono))
    return "".join(out)


P_ZERO = Polynomial._raw(())
P_ONE = Polynomial._raw((ONE,))
T = Polynomial._raw((ZERO, ONE))


def constant(c: ScalarLike) -> Polynomial:
    return Polynomial((c,))


def monomial(k: int, c: ScalarLike = 1) -> Polynomial:
    return Polynomial([0] * k + [c])


def shift(f: "Polynomial | MultiPolynomial", c: ScalarLike, var: int = 0):
    """f(.., t_var - c, ..): module-level spelling of the shift operation."""
    if isinstance(f, MultiPolynomial):
        return f.shift_var(var, c)
    return f.shift(c)


def degree_leading(f: Polynomial) -> tuple[int, GaussianRational]:
    """(degree, leading coefficient); raises ZeroPolynomialError on 0."""
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial has no degree")
    return f.degree, f.leading


class MultiPolynomial:
    """Sparse polynomial in t1..tm: exponent-vector -> nonzero coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], ScalarLike] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        clean: dict[tuple[int, ...], GaussianRational] = {}
        for exps, c in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            for e in exps:
                if e < 0:
                    raise ValueError("negative exponent")
                _check_cap(e)
            c = scalar(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @staticmethod
    def _raw(nvars: int, terms: dict[tuple[int, ...], GaussianRational]) -> "MultiPolynomial":
        mp = object.__new__(MultiPolynomial)
        mp.nvars = nvars
        mp.terms = terms
        return mp

    @staticmethod
    def constant(nvars: int, c: ScalarLike) -> "MultiPolynomial":
        c = scalar(c)
        return MultiPolynomial._raw(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def variable(nvars: int, k: int) -> "MultiPolynomial":
        exps = [0] * nvars
        exps[k] = 1
        return MultiPolynomial._raw(nvars, {tuple(exps): ONE})

    @staticmethod
    def from_polynomial(p: Polynomial, nvars: int = 1, var: int = 0) -> "MultiPolynomial":
        terms = {}
        for k, c in enumerate(p.coeffs):
            if c:
                exps = [0] * nvars
                exps[var] = k
                terms[tuple(exps)] = c
        return MultiPolynomial._raw(nvars, terms)

    def to_polynomial(self) -> Polynomial:
        """Inverse of the nvars=1 embedding."""
        if self.nvars != 1:
            raise ValueError("only single-variable polynomials embed back")
        if not self.terms:
            return P_ZERO
        deg = max(e[0] for e in self.terms)
        cs = [ZERO] * (deg + 1)
        for (e,), c in self.terms.items():
            cs[e] = c
        return Polynomial._raw(tuple(cs))

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple[int, ...] | None:
        """Per-variable maximum exponent, or None for the zero polynomial."""
        if not self.terms:
            return None
        return tuple(max(e[k] for e in self.terms) for k in range(self.nvars))

    @property
    def constant_term(self) -> GaussianRational:
        return self.terms.get((0,) * self.nvars, ZERO)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPolynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: "MultiPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        if not isinstance(other, MultiPolynomial):
            return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e)
            acc = c if acc is None else acc + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return MultiPolynomial._raw(self.nvars, terms)

    def __sub__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        return self + (-other)

    def __neg__(self) -> "MultiPolynomial":
        return MultiPolynomial._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: Union["MultiPolynomial", ScalarLike]) -> "MultiPolynomial":
        if isinstance(other, MultiPolynomial):
            self._require_same(other)
            terms: dict[tuple[int, ...], GaussianRational] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    for x in e:
                        _check_cap(x)
                    acc = terms.get(e)
                    acc = c1 * c2 if acc is None else acc + c1 * c2
                    if acc:
                        terms[e] = acc
                    else:
                        terms.pop(e, None)
            return MultiPolynomial._raw(self.nvars, terms)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: ScalarLike) -> "MultiPolynomial":
        c = scalar(c)
        if not c.b and c.d == 1:
            if c.a == 1:
                return self
            if not c.a:
                return MultiPolynomial._raw(self.nvars, {})
        return MultiPolynomial._raw(self.nvars, dict(zip(self.terms, _scaled(self.terms.values(), c))))

    def shift_var(self, k: int, c: ScalarLike) -> "MultiPolynomial":
        """Substitute t_k -> t_k - c, leaving the other variables alone."""
        cp, ci, cq = _parts(c)
        if not (cp or ci) or not self.terms:
            return self
        # one univariate shift per monomial in the other variables
        columns: dict[tuple[int, ...], dict[int, GaussianRational]] = {}
        for exps, coef in self.terms.items():
            columns.setdefault(exps[:k] + exps[k + 1:], {})[exps[k]] = coef
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for rest, column in columns.items():
            cs = [column.get(j, ZERO) for j in range(max(column) + 1)]
            for j, x in enumerate(_shifted(cs, cp, ci, cq)):
                if x:
                    terms[rest[:k] + (j,) + rest[k:]] = x
        return MultiPolynomial._raw(self.nvars, terms)

    def mul_linear_var(self, k: int, root: ScalarLike) -> "MultiPolynomial":
        """Multiply by (t_k - root)."""
        if not self.terms:
            return self
        rp, ri, rq = _parts(root)
        if not (rp or ri):
            return MultiPolynomial._raw(
                self.nvars, {e[:k] + (e[k] + 1,) + e[k + 1:]: x for e, x in self.terms.items()}
            )
        exps = list(self.terms)
        re, im, den = _common_form(list(self.terms.values()))
        # numerators over den*rq: A[e - t_k]*rq - (rp + ri*i)*A[e]
        acc: dict[tuple[int, ...], list[int]] = {}
        for e, a, b in zip(exps, re, im):
            up = e[:k] + (e[k] + 1,) + e[k + 1:]
            num = acc.setdefault(up, [0, 0])
            num[0] += a * rq
            num[1] += b * rq
            num = acc.setdefault(e, [0, 0])
            num[0] -= rp * a - ri * b
            num[1] -= rp * b + ri * a
        d = den * rq
        return MultiPolynomial._raw(
            self.nvars, {e: _make(a, b, d) for e, (a, b) in acc.items() if a or b}
        )

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        order = sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for exps in order:
            factors = []
            for k, e in enumerate(exps):
                if e == 1:
                    factors.append(f"t{k + 1}")
                elif e > 1:
                    factors.append(f"t{k + 1}^{e}")
            mono = "*".join(factors) if factors else None
            pieces.append((self.terms[exps], mono))
        return _render_terms(pieces)

    def __repr__(self) -> str:
        return f"mpoly({self.nvars}, {str(self)!r})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _scan_varpow(text: str, i: int) -> tuple[int | None, int, int]:
    """Scan 't'[index]['^'exp]; returns (var index or None for bare t, exp, next)."""
    if i >= len(text) or text[i] != "t":
        raise ParseError("expected a variable", i)
    i += 1
    idx: int | None = None
    if i < len(text) and text[i].isdigit():
        idx, i = _scan_uint(text, i)
        if idx < 1:
            raise ParseError("variable indices start at 1", i - 1)
    exp = 1
    j = _skip_ws(text, i)
    if j < len(text) and text[j] == "^":
        j = _skip_ws(text, j + 1)
        exp, j = _scan_uint(text, j)
        i = j
    return idx, exp, i


def parse_polynomial(text: str) -> Polynomial | MultiPolynomial:
    """Parse a polynomial literal.

    Returns a univariate Polynomial when only the bare variable ``t``
    occurs (including pure constants), and a MultiPolynomial when indexed
    variables ``t1``, ``t2``, ... occur.  Mixing the two forms is an error.
    """
    # term accumulator: exponent tuple keyed sparse map, var count inferred
    raw_terms: list[tuple[GaussianRational, dict[int, int]]] = []
    uses_bare = False
    uses_indexed = False
    i = _skip_ws(text, 0)
    if i == len(text):
        raise ParseError("empty polynomial", i)
    first = True
    while True:
        sign = 1
        if not first:
            if i >= len(text):
                break
            if text[i] == "+":
                i = _skip_ws(text, i + 1)
            elif text[i] == "-":
                sign = -1
                i = _skip_ws(text, i + 1)
            else:
                raise ParseError(f"expected '+' or '-', found {text[i]!r}", i)
        elif text[i] == "-" and text.startswith("t", _skip_ws(text, i + 1)):
            sign, i = -1, _skip_ws(text, i + 1)  # leading minus before a variable
        first = False
        coef = ONE
        powers: dict[int, int] = {}
        have_scalar = False
        if i < len(text) and (text[i].isdigit() or text[i] == "-"):
            c, i = scan_scalar(text, i)
            coef = c
            have_scalar = True
        need_var = False
        if have_scalar:
            j = _skip_ws(text, i)
            if j < len(text) and text[j] == "*":
                i = _skip_ws(text, j + 1)
                need_var = True
        else:
            need_var = True
        if need_var:
            while True:
                idx, exp, i = _scan_varpow(text, i)
                if idx is None:
                    uses_bare = True
                    key = 0
                else:
                    uses_indexed = True
                    key = idx - 1
                powers[key] = powers.get(key, 0) + exp
                j = _skip_ws(text, i)
                if j < len(text) and text[j] == "*":
                    i = _skip_ws(text, j + 1)
                    continue
                break
        if sign < 0:
            coef = -coef
        raw_terms.append((coef, powers))
        i = _skip_ws(text, i)
        if i == len(text):
            break
    if uses_bare and uses_indexed:
        raise ParseError("cannot mix bare 't' with indexed variables", 0)
    if uses_indexed:
        nvars = 1 + max(max(p) if p else 0 for _, p in raw_terms)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for coef, powers in raw_terms:
            exps = [0] * nvars
            for k, e in powers.items():
                exps[k] = e
            e = tuple(exps)
            acc = terms.get(e)
            acc = coef if acc is None else acc + coef
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        for e in terms:
            for x in e:
                _check_cap(x)
        return MultiPolynomial._raw(nvars, terms)
    by_degree: dict[int, GaussianRational] = {}
    for coef, powers in raw_terms:
        k = powers.get(0, 0)
        by_degree[k] = by_degree.get(k, ZERO) + coef
    deg = max((k for k, c in by_degree.items() if c), default=-1)
    _check_cap(deg)  # on the combined terms: t^65 - t^65 is 0
    return Polynomial._raw(tuple(by_degree.get(k, ZERO) for k in range(deg + 1)))

