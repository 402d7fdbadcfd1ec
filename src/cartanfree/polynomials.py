"""Exact polynomials: dense univariate in t, sparse multivariate in t1..tm.

Univariate polynomials carry the vectors of the rank-one module families
and all action-table entries; multivariate polynomials carry vectors of
tensor-product modules.  Coefficients are Gaussian rationals throughout,
so all arithmetic is exact.

Polynomial literals follow the grammar

    poly ::= ['-'] term (('+'|'-') term)*
    term ::= scalar | [scalar '*'] varpow ('*' varpow)*
    varpow ::= var ['^' uint]
    var  ::= 't' | 't' uint

e.g. ``2*t^3 - 1/2*t + 1`` (univariate) and ``t1^2*t2`` (multivariate).
Scalars bind tightly (no internal whitespace), so a complex coefficient
like ``1/2+2/3i*t`` parses as (1/2 + 2/3i)*t while ``1/2 + 2/3i*t`` is a
two-term sum.  ``str()`` output re-parses to an equal value.  The sum is
read by ``scalars.scan_sum``; this module scans only the products of
variables.

Storage.  A polynomial keeps integer numerators over one denominator:
a ``Polynomial`` holds tuples ``re`` and ``im`` of equal length and an int
``den``, the coefficient of t^k being (re[k] + im[k]*i)/den; a
``MultiPolynomial`` maps each exponent vector to a pair (re, im) over one
``den``.  The form is canonical: no trailing (univariate) or stored
(multivariate) zero pair, den > 0, and gcd(den, every numerator) = 1; the
zero polynomial is ((), (), 1), or no terms over 1.  Two polynomials are
therefore equal iff their stored integers are, and == and hash compare
tuples.  +, - and scale (both classes) are numerator loops that
canonicalise once, at the end.  shift, mul_linear and their ``_var``
forms are rules of the one rank-one kernel: ``apply_rank_one`` computes
f(t - s) * e for an entry e of degree <= 1 (x . 1 for a module action) as
a Taylor shift (one binomial row when f is a monomial), a multiply by e
and one canonicalisation, and ``shift`` (e = 1) and ``mul_linear``
(s = 0, e = t - root) only build their rule with ``rank_one_rule``.
Three readers of this storage sit outside this module.
``linalg.VectorWindow`` only reads it: it stages probe vectors
and operator columns from the integers, and builds no polynomial back.
``analysis.module_axiom_check`` only reads it too: it stacks the images
of its test vectors as integers and decides each identity on them.
``modules.strip_t`` divides by t by slicing the numerators and
canonicalising with ``_canon``.

Views.  ``coeffs`` (univariate), ``terms`` (multivariate), ``leading`` and
``constant_term`` are read-only GaussianRational views, built on each
access; ``degree``, ``bool``, == and hash read the integers directly.

The constant degree cap ``DEGREE_CAP`` (64, per variable) bounds the
inputs: polynomials built from coefficient lists or parsed literals
(checked after like terms combine), and full products, which can double
a degree, fail loudly above it; a literal's variable indices stop at
it too, so no parse sizes an exponent list beyond it.  scale and the
rank-one kernel (with shift, mul_linear and their multivariate forms)
raise a degree by at most one and leave the bound to their callers: a
probe's window bounds every vector it keeps, whatever the cap.  The
window itself is bounded by ``WINDOW_CAP`` (2^16 monomials, (D + 1)^m for
degree D in m variables), which ``linalg.VectorWindow`` checks before it
lists a monomial.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import (
    DegreeOverflowError,
    ParseError,
    ZeroPolynomialError,
)
from .scalars import GaussianRational, ZERO, ScalarLike, _scan_uint, at_digit, scalar, scan_sum, skip_ws

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
    "rank_one_rule",
    "DEGREE_CAP",
    "WINDOW_CAP",
]

DEGREE_CAP = 64
WINDOW_CAP = 1 << 16  # monomials in one probe window, (D + 1)^m for m variables
_new = object.__new__
_make = GaussianRational._make

Numerators = list[int]
Exponents = tuple[int, ...]


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


def _over_lcm(cs: Sequence[GaussianRational]) -> tuple[Numerators, Numerators, int]:
    """Scalars as integer numerators over their least common denominator (construction only)."""
    den = lcm(*[x.d for x in cs])
    return [x.a * (den // x.d) for x in cs], [x.b * (den // x.d) for x in cs], den


def _times(re: Sequence[int], im: Sequence[int], ca: int, cb: int) -> tuple[Numerators, Numerators]:
    """Numerators of (ca + cb*i) * (re + im*i), entrywise."""
    if cb:
        return [x * ca - y * cb for x, y in zip(re, im)], [x * cb + y * ca for x, y in zip(re, im)]
    return [x * ca for x in re], [y * ca for y in im]


def _taylor_shift(xs: Numerators, s: int) -> None:
    """In place: the coefficients of h(u) become those of h(u + s)."""
    n = len(xs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            xs[j] += s * xs[j + 1]


def _shift_num(re: Numerators, im: Numerators, cp: int, ci: int, cq: int) -> int:
    """In place: numerators of f become those of f(t - c) over a cq^(n-1) times larger denominator.

    c = (cp + ci*i)/cq and n = len(re) >= 1.  With u = cq*t, cq^(n-1) f(t)
    is h(u) with numerators A[k]*cq^(n-1-k); cq^(n-1) f(t - c) is then
    h(u - cp - ci*i), one integer Taylor shift by a Gaussian integer, and
    its t^k numerator is B[k]*cq^k.  Returns cq^(n-1).

    A monomial A*t^e (e = n - 1, every lower numerator 0), the input of
    every operator column and of every sweep over window monomials, skips
    the O(e^2) Taylor shift: B[k] = C(e,k) * A * (-cp - ci*i)^(e-k) is one
    binomial row, built from k = e down in O(e) multiplications.
    """
    n = len(re)
    e = n - 1
    sp, si = -cp, -ci
    if any(re[:e]) or any(im[:e]):
        if cq != 1:
            w = 1
            for k in range(e, -1, -1):
                re[k] *= w
                im[k] *= w
                w *= cq
        if si:
            for i in range(e):
                for j in range(n - 2, i - 1, -1):
                    a, b = re[j + 1], im[j + 1]
                    re[j] += sp * a - si * b
                    im[j] += sp * b + si * a
        else:
            _taylor_shift(re, sp)
            if any(im):
                _taylor_shift(im, sp)
    else:  # one binomial row: C(e,k) falls to C(e,k-1) as the power of -c rises
        a, b = re[e], im[e]
        binom = 1
        for k in range(e, 0, -1):
            re[k], im[k] = binom * a, binom * b
            a, b = a * sp - b * si, a * si + b * sp
            binom = binom * k // (e - k + 1)
        re[0], im[0] = binom * a, binom * b
    if cq == 1:
        return 1
    w = 1
    for k in range(n):
        re[k] *= w
        im[k] *= w
        w *= cq
    return w // cq


def _mul_affine(
    re: Sequence[int], im: Sequence[int], ar: int, ai: int, br: int, bi: int
) -> tuple[Numerators, Numerators]:
    """Numerators of (A + B*t) * g, with A = ar + ai*i, B = br + bi*i and g = re + im*i."""
    r0, r1 = (*re, 0), (0, *re)
    if ai or bi:
        i0, i1 = (*im, 0), (0, *im)
        return (
            [ar * x - ai * y + br * u - bi * v for x, y, u, v in zip(r0, i0, r1, i1)],
            [ar * y + ai * x + br * v + bi * u for x, y, u, v in zip(r0, i0, r1, i1)],
        )
    out = [ar * x + br * u for x, u in zip(r0, r1)]
    if any(im):
        return out, [ar * y + br * v for y, v in zip((*im, 0), (0, *im))]
    return out, [0] * len(out)


def rank_one_rule(shift: ScalarLike, entry: "Polynomial") -> tuple[int, ...]:
    """The integer form of the rule x . f = f(t - shift) * entry, for a nonzero entry of degree <= 1.

    The entry is x . 1 for a module action, ``P_ONE`` for a plain shift, or
    t - root (with shift 0) for a multiply by a linear factor.  Returns
    (sp, si, sq, ar, ai, br, bi, ed) with shift = (sp + si*i)/sq and
    entry = ((ar + ai*i) + (br + bi*i)*t)/ed; ``apply_rank_one`` takes it.
    """
    re, im = entry._re, entry._im
    if len(re) == 1:
        return (*_parts(shift), re[0], im[0], 0, 0, entry._den)
    return (*_parts(shift), re[0], im[0], re[1], im[1], entry._den)


def _rank_one_num(re: Numerators, im: Numerators, rule: tuple[int, ...]) -> tuple[Numerators, Numerators, int]:
    """The one rank-one kernel: numerators of f(t - s) * (x . 1) for f = (re + im*i)/den.

    re and im (length n >= 1) are consumed.  Returns (re', im', m) with
    f(t - s) * (x . 1) = (re' + im'*i)/(den*m); m depends only on n and
    the rule.
    """
    sp, si, sq, ar, ai, br, bi, ed = rule
    m = ed
    if (sp or si) and len(re) > 1:
        m *= _shift_num(re, im, sp, si, sq)
    if br or bi:
        re, im = _mul_affine(re, im, ar, ai, br, bi)
    elif ai or ar != 1:
        re, im = _times(re, im, ar, ai)
    return re, im, m


def _canon(re: Numerators, im: Numerators, den: int) -> "Polynomial":
    """The polynomial (re + im*i)/den in canonical form; den > 0."""
    n = len(re)
    while n and not (re[n - 1] or im[n - 1]):
        n -= 1
    if not n:
        return P_ZERO
    if n < len(re):
        del re[n:], im[n:]
    if den != 1:
        g = gcd(den, *re)
        if g != 1:
            g = gcd(g, *im)
            if g != 1:
                den //= g
                re = [x // g for x in re]
                im = [y // g for y in im]
    p = _new(Polynomial)
    p._re = tuple(re)
    p._im = tuple(im)
    p._den = den
    return p


class Polynomial:
    """Dense univariate polynomial over Q(i).

    ``coeffs[k]`` is the coefficient of t^k; trailing zeros are stripped,
    so the zero polynomial has an empty tuple and every nonzero polynomial
    has a nonzero leading coefficient.  The degree of the zero polynomial
    is None, never a number that could leak into arithmetic.  See the
    module docstring for the integer storage behind these views.
    """

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        p = Polynomial._from_scalars([scalar(c) for c in coeffs])
        _check_cap(len(p._re) - 1)
        self._re, self._im, self._den = p._re, p._im, p._den

    @staticmethod
    def _raw(re: tuple[int, ...], im: tuple[int, ...], den: int) -> "Polynomial":
        """Trusted constructor: (re, im, den) already canonical; the caller bounds the degree."""
        p = _new(Polynomial)
        p._re = re
        p._im = im
        p._den = den
        return p

    @staticmethod
    def _from_scalars(cs: Sequence[GaussianRational]) -> "Polynomial":
        """The polynomial with coefficients cs; the caller bounds the degree."""
        return _canon(*_over_lcm(cs))

    # -- views and basic queries -----------------------------------------------

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        """coeffs[k] is the coefficient of t^k (a view built on each access)."""
        d = self._den
        return tuple([_make(a, b, d) for a, b in zip(self._re, self._im)])

    @property
    def is_zero(self) -> bool:
        return not self._re

    @property
    def degree(self) -> int | None:
        return len(self._re) - 1 if self._re else None

    @property
    def leading(self) -> GaussianRational:
        if not self._re:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return _make(self._re[-1], self._im[-1], self._den)

    @property
    def constant_term(self) -> GaussianRational:
        return _make(self._re[0], self._im[0], self._den) if self._re else ZERO

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._den == other._den and self._re == other._re and self._im == other._im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._re, self._im, self._den))

    def __bool__(self) -> bool:
        return bool(self._re)

    # -- arithmetic ------------------------------------------------------

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign*other, over the least common denominator."""
        if not isinstance(other, Polynomial):
            return NotImplemented
        fr, fi, fd = self._re, self._im, self._den
        gr, gi, gd = other._re, other._im, other._den
        if fd != gd:
            h = gcd(fd, gd)
            u, v = gd // h, fd // h
            fr, fi = [x * u for x in fr], [y * u for y in fi]
            gr, gi = [x * v for x in gr], [y * v for y in gi]
            fd *= u
        if sign < 0:
            gr, gi = [-x for x in gr], [-y for y in gi]
        n, m = len(fr), len(gr)
        re = [x + y for x, y in zip(fr, gr)]
        im = [x + y for x, y in zip(fi, gi)]
        if n != m:
            re.extend(fr[m:] if n > m else gr[n:])
            im.extend(fi[m:] if n > m else gi[n:])
        return _canon(re, im, fd)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._combine(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(tuple([-x for x in self._re]), tuple([-y for y in self._im]), self._den)

    def __mul__(self, other: Union["Polynomial", ScalarLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            fr, fi, gr, gi = self._re, self._im, other._re, other._im
            if not fr or not gr:
                return P_ZERO
            _check_cap(len(fr) + len(gr) - 2)
            re = [0] * (len(fr) + len(gr) - 1)
            im = list(re)
            for j, (x, y) in enumerate(zip(fr, fi)):
                if not (x or y):
                    continue
                for k, (u, v) in enumerate(zip(gr, gi), start=j):
                    re[k] += x * u - y * v
                    im[k] += x * v + y * u
            return _canon(re, im, self._den * other._den)
        return self.scale(other)

    def __rmul__(self, other: ScalarLike) -> "Polynomial":
        return self.scale(other)

    def scale(self, c: ScalarLike) -> "Polynomial":
        ca, cb, cd = _parts(c)
        if not cb and cd == 1:
            if ca == 1:
                return self
            if not ca:
                return P_ZERO
        return _canon(*_times(self._re, self._im, ca, cb), self._den * cd)

    def shift(self, c: ScalarLike) -> "Polynomial":
        """The substitution t -> t - c, i.e. return g with g(t) = f(t - c).

        Degree and leading coefficient are preserved.
        """
        return self.apply_rank_one(rank_one_rule(c, P_ONE))

    def mul_linear(self, root: ScalarLike) -> "Polynomial":
        """Multiply by (t - root) in O(degree) integer operations."""
        return self.apply_rank_one(rank_one_rule(0, T - constant(root)))

    def apply_rank_one(self, rule: tuple[int, ...]) -> "Polynomial":
        """f(t - s) * (x . 1) for a rule from ``rank_one_rule``, canonicalised once."""
        if not self._re:
            return P_ZERO
        re, im, m = _rank_one_num(list(self._re), list(self._im), rule)
        return _canon(re, im, self._den * m)

    def divide_linear(self, root: ScalarLike) -> tuple["Polynomial", GaussianRational]:
        """Synthetic division by (t - root): returns (quotient, remainder)."""
        root = scalar(root)
        cs = self.coeffs
        n = len(cs) - 1
        if n < 0:
            return P_ZERO, ZERO
        if n == 0:
            return P_ZERO, cs[0]
        q: list[GaussianRational] = [ZERO] * n
        q[n - 1] = cs[n]
        for k in range(n - 1, 0, -1):
            q[k - 1] = cs[k] + root * q[k]
        rem = cs[0] + root * q[0]
        return Polynomial._from_scalars(q), rem

    def evaluate(self, x: ScalarLike) -> GaussianRational:
        x = scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        cs = self.coeffs
        if not cs:
            return "0"
        pieces = []
        for k in range(len(cs) - 1, -1, -1):
            c = cs[k]
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


P_ZERO = Polynomial._raw((), (), 1)
P_ONE = Polynomial._raw((1,), (0,), 1)
T = Polynomial._raw((0, 1), (0, 0), 1)


def constant(c: ScalarLike) -> Polynomial:
    return Polynomial((c,))


def monomial(k: int, c: ScalarLike = 1) -> Polynomial:
    return Polynomial([0] * k + [c])


def _t_power(k: int) -> Polynomial:
    """t^k straight from the integer storage; the caller bounds k (a window may pass the cap)."""
    return Polynomial._raw((0,) * k + (1,), (0,) * (k + 1), 1)


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


# -- multivariate helpers ------------------------------------------------------------

Terms = dict[Exponents, tuple[int, int]]


def _mcanon(nvars: int, acc: dict, den: int) -> "MultiPolynomial":
    """The multivariate polynomial sum (re + im*i)/den over acc's (re, im) pairs, canonical; den > 0."""
    num = {e: (a, b) for e, (a, b) in acc.items() if a or b}
    if not num:
        den = 1
    elif den != 1:
        g = gcd(den, *[a for a, _ in num.values()])
        if g != 1:
            g = gcd(g, *[b for _, b in num.values()])
            if g != 1:
                den //= g
                num = {e: (a // g, b // g) for e, (a, b) in num.items()}
    return MultiPolynomial._raw(nvars, num, den)


def _columns(num: Terms, k: int, n: int) -> dict[Exponents, tuple[Numerators, Numerators]]:
    """Terms grouped by their exponents outside slot k, each group a dense (re, im) pair of length n in t_k."""
    cols: dict[Exponents, tuple[Numerators, Numerators]] = {}
    for e, (a, b) in num.items():
        rest = e[:k] + e[k + 1:]
        col = cols.get(rest)
        if col is None:
            col = cols[rest] = ([0] * n, [0] * n)
        col[0][e[k]] = a
        col[1][e[k]] = b
    return cols


def _scatter(acc: dict, rest: Exponents, k: int, re: Numerators, im: Numerators, w: int) -> None:
    """Add w times the slot-k column (re, im) at exponents rest into acc."""
    for j, a in enumerate(re):
        b = im[j]
        if a or b:
            e = rest[:k] + (j,) + rest[k:]
            p = acc.get(e)
            acc[e] = (a * w, b * w) if p is None else (p[0] + a * w, p[1] + b * w)


class MultiPolynomial:
    """Sparse polynomial in t1..tm: exponent-vector -> nonzero coefficient.

    ``terms`` is a view built on each access; see the module docstring
    for the integer storage behind it.
    """

    __slots__ = ("nvars", "_num", "_den")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], ScalarLike] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[Exponents, GaussianRational] = {}
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
        p = MultiPolynomial._from_scalars(nvars, clean)
        self.nvars, self._num, self._den = nvars, p._num, p._den

    @staticmethod
    def _raw(nvars: int, num: Terms, den: int) -> "MultiPolynomial":
        """Trusted constructor: (num, den) already canonical; the caller bounds the degrees."""
        mp = _new(MultiPolynomial)
        mp.nvars = nvars
        mp._num = num
        mp._den = den
        return mp

    @staticmethod
    def _from_scalars(nvars: int, terms: dict[Exponents, GaussianRational]) -> "MultiPolynomial":
        """The polynomial with the given coefficients; the caller bounds the degrees."""
        re, im, den = _over_lcm(list(terms.values()))
        return _mcanon(nvars, dict(zip(terms, zip(re, im))), den)

    @staticmethod
    def constant(nvars: int, c: ScalarLike) -> "MultiPolynomial":
        a, b, d = _parts(c)
        if not (a or b):
            return MultiPolynomial._raw(nvars, {}, 1)
        return MultiPolynomial._raw(nvars, {(0,) * nvars: (a, b)}, d)

    @staticmethod
    def variable(nvars: int, k: int) -> "MultiPolynomial":
        exps = [0] * nvars
        exps[k] = 1
        return MultiPolynomial._raw(nvars, {tuple(exps): (1, 0)}, 1)

    @staticmethod
    def from_polynomial(p: Polynomial, nvars: int = 1, var: int = 0) -> "MultiPolynomial":
        pad = (0,) * (nvars - 1)
        num = {
            pad[:var] + (k,) + pad[var:]: (a, b)
            for k, (a, b) in enumerate(zip(p._re, p._im))
            if a or b
        }
        return MultiPolynomial._raw(nvars, num, p._den)

    def to_polynomial(self) -> Polynomial:
        """Inverse of the nvars=1 embedding."""
        if self.nvars != 1:
            raise ValueError("only single-variable polynomials embed back")
        if not self._num:
            return P_ZERO
        n = 1 + max(e[0] for e in self._num)
        re, im = [0] * n, [0] * n
        for (e,), (a, b) in self._num.items():
            re[e], im[e] = a, b
        return Polynomial._raw(tuple(re), tuple(im), self._den)

    def padded(self, nvars: int) -> "MultiPolynomial":
        """The same polynomial in nvars >= self.nvars variables (the new ones do not occur)."""
        pad = (0,) * (nvars - self.nvars)
        return MultiPolynomial._raw(nvars, {e + pad: v for e, v in self._num.items()}, self._den)

    # -- views and queries ---------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, GaussianRational]:
        """Exponent vector -> nonzero coefficient (a view built on each access)."""
        d = self._den
        return {e: _make(a, b, d) for e, (a, b) in self._num.items()}

    def exponents(self) -> list[Exponents]:
        """The exponent vectors of the nonzero terms."""
        return list(self._num)

    @property
    def is_zero(self) -> bool:
        return not self._num

    def degrees(self) -> tuple[int, ...] | None:
        """Per-variable maximum exponent, or None for the zero polynomial."""
        if not self._num:
            return None
        return tuple(max(e[k] for e in self._num) for k in range(self.nvars))

    @property
    def constant_term(self) -> GaussianRational:
        pair = self._num.get((0,) * self.nvars)
        return ZERO if pair is None else _make(pair[0], pair[1], self._den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPolynomial):
            return self.nvars == other.nvars and self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, self._den, frozenset(self._num.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other: "MultiPolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        if not isinstance(other, MultiPolynomial):
            return NotImplemented
        self._require_same(other)
        if not other._num:
            return self
        if not self._num:
            return other
        fd, gd = self._den, other._den
        h = gcd(fd, gd)
        u, v = gd // h, fd // h
        acc = dict(self._num) if u == 1 else {e: (a * u, b * u) for e, (a, b) in self._num.items()}
        for e, (a, b) in other._num.items():
            p = acc.get(e)
            acc[e] = (a * v, b * v) if p is None else (p[0] + a * v, p[1] + b * v)
        return _mcanon(self.nvars, acc, fd * u)

    def __sub__(self, other: "MultiPolynomial") -> "MultiPolynomial":
        return self + (-other)

    def __neg__(self) -> "MultiPolynomial":
        return MultiPolynomial._raw(
            self.nvars, {e: (-a, -b) for e, (a, b) in self._num.items()}, self._den
        )

    def __mul__(self, other: Union["MultiPolynomial", ScalarLike]) -> "MultiPolynomial":
        if isinstance(other, MultiPolynomial):
            self._require_same(other)
            acc: dict[Exponents, tuple[int, int]] = {}
            for e1, (x, y) in self._num.items():
                for e2, (u, v) in other._num.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    for d in e:
                        _check_cap(d)
                    p = acc.get(e, (0, 0))
                    acc[e] = (p[0] + x * u - y * v, p[1] + x * v + y * u)
            return _mcanon(self.nvars, acc, self._den * other._den)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: ScalarLike) -> "MultiPolynomial":
        ca, cb, cd = _parts(c)
        if not cb and cd == 1:
            if ca == 1:
                return self
            if not ca:
                return MultiPolynomial._raw(self.nvars, {}, 1)
        exps = list(self._num)
        re, im = _times([a for a, _ in self._num.values()], [b for _, b in self._num.values()], ca, cb)
        return _mcanon(self.nvars, dict(zip(exps, zip(re, im))), self._den * cd)

    def shift_var(self, k: int, c: ScalarLike) -> "MultiPolynomial":
        """Substitute t_k -> t_k - c, leaving the other variables alone."""
        return self.apply_rank_one([(k, rank_one_rule(c, P_ONE))])

    def mul_linear_var(self, k: int, root: ScalarLike) -> "MultiPolynomial":
        """Multiply by (t_k - root)."""
        return self.apply_rank_one([(k, rank_one_rule(0, T - constant(root)))])

    def apply_rank_one(self, slots: Iterable[tuple[int, tuple[int, ...]]]) -> "MultiPolynomial":
        """Sum over (k, rule) of f(.., t_k - s_k, ..) * (x_k . 1)(t_k), canonicalised once.

        Each slot runs the univariate kernel of ``Polynomial.apply_rank_one``
        on every t_k column; the columns share one length, hence one
        denominator per slot.
        """
        num = self._num
        if not num:
            return self
        images = []
        for k, rule in slots:
            n = 1 + max(e[k] for e in num)
            cols = []
            for rest, (re, im) in _columns(num, k, n).items():
                re, im, m = _rank_one_num(re, im, rule)
                cols.append((rest, re, im))
            images.append((k, cols, m))
        if not images:
            return MultiPolynomial._raw(self.nvars, {}, 1)
        big = lcm(*[m for _, _, m in images])
        acc: dict = {}
        for k, cols, m in images:
            for rest, re, im in cols:
                _scatter(acc, rest, k, re, im, big // m)
        return _mcanon(self.nvars, acc, self._den * big)

    # -- rendering -----------------------------------------------------

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        order = sorted(terms, key=lambda e: (sum(e), e), reverse=True)
        pieces = []
        for exps in order:
            factors = []
            for k, e in enumerate(exps):
                if e == 1:
                    factors.append(f"t{k + 1}")
                elif e > 1:
                    factors.append(f"t{k + 1}^{e}")
            mono = "*".join(factors) if factors else None
            pieces.append((terms[exps], mono))
        return _render_terms(pieces)

    def __repr__(self) -> str:
        return f"mpoly({self.nvars}, {str(self)!r})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _scan_product(text: str, i: int) -> tuple[dict[int, int], int]:
    """Scan ``varpow ('*' varpow)*``; returns ({var: exponent}, next), var 0 for bare t."""
    powers: dict[int, int] = {}
    while True:
        if i >= len(text) or text[i] != "t":
            raise ParseError("expected a variable", i)
        i += 1
        var = 0
        if at_digit(text, i):
            var, j = _scan_uint(text, i)
            if var < 1:
                raise ParseError("variable indices start at 1", j - 1)
            if var > DEGREE_CAP:  # exponent lists are sized by the largest index
                raise ParseError(f"variable indices stop at {DEGREE_CAP}", i)
            i = j
        exp = 1
        j = skip_ws(text, i)
        if j < len(text) and text[j] == "^":
            exp, i = _scan_uint(text, skip_ws(text, j + 1))
        powers[var] = powers.get(var, 0) + exp
        j = skip_ws(text, i)
        if j == len(text) or text[j] != "*":
            return powers, i
        i = skip_ws(text, j + 1)


def parse_polynomial(text: str) -> Polynomial | MultiPolynomial:
    """Parse a polynomial literal.

    Returns a univariate Polynomial when only the bare variable ``t``
    occurs (including pure constants), and a MultiPolynomial when indexed
    variables ``t1``, ``t2``, ... occur.  Mixing the two forms is an error.
    """
    raw_terms = [(c, p or {}) for c, p in scan_sum(text, "polynomial", "t", _scan_product, None)]
    uses_bare = any(0 in p for _, p in raw_terms)
    uses_indexed = any(var for _, p in raw_terms for var in p)
    if uses_bare and uses_indexed:
        raise ParseError("cannot mix bare 't' with indexed variables", 0)
    if uses_indexed:
        nvars = max(max(p, default=0) for _, p in raw_terms)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for coef, powers in raw_terms:
            exps = [0] * nvars
            for var, e in powers.items():
                exps[var - 1] = e
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
        return MultiPolynomial._from_scalars(nvars, terms)
    by_degree: dict[int, GaussianRational] = {}
    for coef, powers in raw_terms:
        k = powers.get(0, 0)
        by_degree[k] = by_degree.get(k, ZERO) + coef
    deg = max((k for k, c in by_degree.items() if c), default=-1)
    _check_cap(deg)  # on the combined terms: t^65 - t^65 is 0
    return Polynomial._from_scalars([by_degree.get(k, ZERO) for k in range(deg + 1)])

