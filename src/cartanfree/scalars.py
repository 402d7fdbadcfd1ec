"""Exact arithmetic over the Gaussian rationals Q(i).

Every number in this package -- module parameters, structure constants,
polynomial coefficients -- is a :class:`GaussianRational`: an exact complex
number (a + b*i)/d with arbitrary-precision integers a, b and positive
denominator d, stored with gcd(a, b, d) = 1.  The representation is
canonical, so equality is plain component equality and every identity in
the test suite is asserted with zero tolerance.

Scalar literals follow the grammar

    uint   ::= digit digit*          (digit: ASCII 0-9 only)
    int    ::= ['-'] uint
    rat    ::= int ['/' uint]
    scalar ::= rat | rat ('+'|'-') rat 'i' | rat 'i'

for example ``3/2``, ``-1/2+2/3i``, ``2i``.  No whitespace is permitted
inside a literal; this keeps embedded scalars unambiguous inside
polynomial and algebra-element expressions.  ``str()`` emits the canonical
reduced form and ``parse_scalar(str(x)) == x`` always holds.

This module also holds the scanner that every other literal is read
with: ``scan_sum`` reads ``['-'] term (('+'|'-') term)*`` with ``term ::=
[scalar '*'] atom`` and leaves the atom to its caller (a product of
variables for polynomials, a generator for algebra elements), and
``skip_ws`` and ``scan_int`` are the one whitespace and integer scanners.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, TypeVar, Union

from .errors import (
    DigitRunError,
    DivisionByZeroError,
    NonInvertibleError,
    ParseError,
    ZeroDenominatorError,
)

__all__ = [
    "GaussianRational",
    "scalar",
    "parse_scalar",
    "pow_int",
    "ZERO",
    "ONE",
    "I",
]

ScalarLike = Union["GaussianRational", int, Fraction]
Atom = TypeVar("Atom")

_new = object.__new__


class GaussianRational:
    """An exact element of Q(i), stored as (a + b*i)/d.

    Invariants: d > 0 and gcd(a, b, d) = 1, so two values are equal iff
    their triples are identical.  Instances are immutable and hashable;
    they compare equal to ints and Fractions of the same value.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: ScalarLike = 0, im: ScalarLike = 0):
        re, im = Fraction(re), Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        g = gcd(a, b, d)
        self.a = a // g
        self.b = b // g
        self.d = d // g

    # -- construction ------------------------------------------------------

    @staticmethod
    def _raw(a: int, b: int, d: int) -> "GaussianRational":
        """Trusted constructor: (a, b, d) already normalized."""
        self = _new(GaussianRational)
        self.a = a
        self.b = b
        self.d = d
        return self

    @staticmethod
    def _make(a: int, b: int, d: int) -> "GaussianRational":
        """Normalize a raw integer triple (d may be negative, not zero)."""
        if d != 1:
            if d < 0:
                a, b, d = -a, -b, -d
            g = gcd(a, b, d) if b else gcd(a, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        self = _new(GaussianRational)
        self.a = a
        self.b = b
        self.d = d
        return self

    @staticmethod
    def from_int(n: int) -> "GaussianRational":
        return GaussianRational._raw(n, 0, 1)

    # -- component access --------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def re_num(self) -> int:
        return self.re.numerator

    @property
    def re_den(self) -> int:
        return self.re.denominator

    @property
    def im_num(self) -> int:
        return self.im.numerator

    @property
    def im_den(self) -> int:
        return self.im.denominator

    def as_int(self) -> int | None:
        """The value as a Python int when it is one, else None."""
        if self.b == 0 and self.d == 1:
            return self.a
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        sd, od = self.d, o.d
        if sd == 1 and od == 1:
            r = _new(GaussianRational)
            r.a = self.a + o.a
            r.b = self.b + o.b
            r.d = 1
            return r
        if sd == od:
            return GaussianRational._make(self.a + o.a, self.b + o.b, sd)
        return GaussianRational._make(
            self.a * od + o.a * sd, self.b * od + o.b * sd, sd * od
        )

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        sd, od = self.d, o.d
        if sd == 1 and od == 1:
            r = _new(GaussianRational)
            r.a = self.a - o.a
            r.b = self.b - o.b
            r.d = 1
            return r
        if sd == od:
            return GaussianRational._make(self.a - o.a, self.b - o.b, sd)
        return GaussianRational._make(
            self.a * od - o.a * sd, self.b * od - o.b * sd, sd * od
        )

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self.a, -self.b, self.d)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = other if type(other) is GaussianRational else _coerce(other)
        if o is None:
            return NotImplemented
        if self.b == 0 and o.b == 0:
            if self.d == 1 and o.d == 1:
                r = _new(GaussianRational)
                r.a = self.a * o.a
                r.b = 0
                r.d = 1
                return r
            return GaussianRational._make(self.a * o.a, 0, self.d * o.d)
        return GaussianRational._make(
            self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a, self.d * o.d
        )

    __rmul__ = __mul__

    def mul_int(self, n: int) -> "GaussianRational":
        if n == 1:
            return self
        return GaussianRational._make(self.a * n, self.b * n, self.d)

    def inverse(self) -> "GaussianRational":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise DivisionByZeroError("inverse of zero scalar")
        return GaussianRational._make(self.a * self.d, -self.b * self.d, n)

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            return NotImplemented
        base = self
        if n < 0:
            if not self:
                raise NonInvertibleError("zero scalar has no negative powers")
            base = self.inverse()
            n = -n
        acc = ONE
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.a, -self.b, self.d)

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return self.b == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # Matches hash(int) / hash(Fraction) on real values so that
        # cross-type equality stays consistent with hashing.
        if self.b == 0:
            if self.d == 1:
                return hash(self.a)
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self:
            return "0"
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def __repr__(self) -> str:
        return f"scalar({str(self)!r})"


def _coerce(v: object) -> GaussianRational | None:
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, int):
        return GaussianRational._raw(v, 0, 1)
    if isinstance(v, Fraction):
        return GaussianRational._raw(v.numerator, 0, v.denominator)
    return None


ZERO = GaussianRational._raw(0, 0, 1)
ONE = GaussianRational._raw(1, 0, 1)
I = GaussianRational._raw(0, 1, 1)


def scalar(v: ScalarLike | str) -> GaussianRational:
    """Coerce an int, Fraction, literal string, or scalar to a scalar."""
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, str):
        return parse_scalar(v)
    c = _coerce(v)
    if c is None:
        raise TypeError(f"cannot interpret {v!r} as a Gaussian rational")
    return c


def pow_int(x: ScalarLike, n: int) -> GaussianRational:
    """x**n with exact semantics; n < 0 requires x != 0."""
    return scalar(x) ** n


# ---------------------------------------------------------------------------
# Literal scanning.  Every literal of the package is read here: scalars by
# scan_scalar, and polynomials and algebra elements by scan_sum, which runs
# the one sum-of-terms loop and leaves the atoms (monomials, generators) to
# a scanner passed in by the caller.  All scanners work on (text, offset)
# pairs.  Whitespace separates the tokens of a sum but never appears inside
# a scalar literal, which binds tightly.
# ---------------------------------------------------------------------------


def skip_ws(text: str, i: int) -> int:
    """The first offset at or after i that is not whitespace."""
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def at_digit(text: str, i: int) -> bool:
    """Is there an ASCII digit at offset i?  Other Unicode digits are not read."""
    return i < len(text) and "0" <= text[i] <= "9"


def _scan_uint(text: str, i: int, what: str = "an integer") -> tuple[int, int]:
    j = i
    while at_digit(text, j):
        j += 1
    if j == i:
        raise ParseError(f"expected {what}", i)
    try:
        return int(text[i:j]), j
    except ValueError:  # past Python's limit on digits converted to an int
        raise DigitRunError(f"digit run of {j - i} digits is too long", i) from None


def scan_int(text: str, i: int, what: str = "an integer") -> tuple[int, int]:
    """Scan ``['-'] digits`` starting exactly at offset i; ``what`` names it in errors."""
    if i < len(text) and text[i] == "-":
        num, i = _scan_uint(text, i + 1, what)
        return -num, i
    return _scan_uint(text, i, what)


def _scan_rat(text: str, i: int) -> tuple[Fraction, int]:
    num, i = scan_int(text, i)
    den = 1
    if i < len(text) and text[i] == "/":
        den_pos = i + 1
        den, i = _scan_uint(text, den_pos)
        if den == 0:
            raise ZeroDenominatorError("denominator is zero", den_pos)
    return Fraction(num, den), i


def scan_scalar(text: str, i: int) -> tuple[GaussianRational, int]:
    """Scan a scalar literal starting exactly at offset i.

    Greedy with one backtrack point: after ``rat ('+'|'-')`` the scan
    commits to the complex form only if a ``rat 'i'`` tail follows;
    otherwise the sign belongs to the surrounding expression.
    """
    r1, i = _scan_rat(text, i)
    if i < len(text) and text[i] == "i":
        return GaussianRational(0, r1), i + 1
    if i < len(text) and text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        try:
            r2, j = _scan_rat(text, i + 1)
        except (ZeroDenominatorError, DigitRunError):
            raise  # errors of the tail's own digits, not a reason to backtrack
        except ParseError:
            return GaussianRational(r1), i
        if j < len(text) and text[j] == "i":
            return GaussianRational(r1, sign * r2), j + 1
        return GaussianRational(r1), i
    return GaussianRational(r1), i


def scan_sum(
    text: str,
    what: str,
    starts: str,
    scan_atom: Callable[[str, int], tuple[Atom, int]],
    bare: str | None,
) -> list[tuple[GaussianRational, Atom | None]]:
    """Scan the whole of ``text`` as ``['-'] term (('+'|'-') term)*``.

    A term is ``[scalar '*'] atom``, where ``scan_atom(text, i)`` reads an
    atom at offset i and returns it with the offset after it.  ``starts``
    holds the characters an atom begins with: a leading '-' before one of
    them negates the first term, and before a digit it is the sign of the
    scalar.  ``bare`` names what must follow a coefficient; when it is None
    a term may be a bare scalar, whose atom is None.  Returns each term's
    (signed coefficient, atom) in order; ``what`` names the literal in the
    error for empty input.
    """
    n = len(text)
    i = skip_ws(text, 0)
    if i == n:
        raise ParseError(f"empty {what}", i)
    sign = 1
    j = skip_ws(text, i + 1)
    if text[i] == "-" and j < n and text[j] in starts:
        sign, i = -1, j  # leading minus before an atom
    terms: list[tuple[GaussianRational, Atom | None]] = []
    while True:
        coef, atom = ONE, None
        if at_digit(text, i) or text.startswith("-", i):
            coef, i = scan_scalar(text, i)
            j = skip_ws(text, i)
            if j < n and text[j] == "*":
                atom, i = scan_atom(text, skip_ws(text, j + 1))
            elif bare is not None:
                raise ParseError(f"coefficient must be followed by '*' and {bare}", i)
        else:
            atom, i = scan_atom(text, i)
        terms.append((-coef if sign < 0 else coef, atom))
        i = skip_ws(text, i)
        if i == n:
            return terms
        if text[i] not in "+-":
            raise ParseError(f"expected '+' or '-', found {text[i]!r}", i)
        sign = -1 if text[i] == "-" else 1
        i = skip_ws(text, i + 1)


def parse_scalar(text: str) -> GaussianRational:
    """Parse a complete scalar literal (surrounding whitespace allowed)."""
    value, i = scan_scalar(text, skip_ws(text, 0))
    i = skip_ws(text, i)
    if i != len(text):
        raise ParseError(f"unexpected trailing input {text[i:]!r}", i)
    return value
