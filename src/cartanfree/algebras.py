"""Basis symbols, elements, and exact brackets for five Lie algebra kinds.

* ``Virasoro``              basis L(i), C;  [L_i, L_j] = (j-i) L_{i+j} + d_{i+j,0} (i^3-i)/12 C
* ``LoopVirasoro``          basis L(i,j), C(j);  [L_{i,j}, L_{k,l}] = (k-i) L_{i+k,j+l} + d_{i+k,0} (i^3-i)/12 C_{j+l}
* ``BlockHat(q)``           basis L(m,i) with i >= 0, C;  [L_{m,i}, L_{n,j}] = (n(i+q) - m(j+q)) L_{m+n,i+j}
                            + d_{m+n,0} d_{i+j,0} (m^3-m)/12 C
* ``Block(q)``              the derived subalgebra of BlockHat(q): same bracket, but the basis omits
                            L(0, -2q) whenever -2q is a positive integer (the bracket coefficient
                            landing on that symbol vanishes identically, which the implementation
                            asserts on every evaluation)
* ``BlockTrunc(q, k, l)``   the subquotient spanned by L(m,i) with k <= i <= l, without C; bracket
                            terms with second index above l are discarded; not centerless: its
                            centre holds L(0,-q) when -q is a positive integer in [k, l], the
                            rows L(m,i) with i > l - k, and more at q = -k, l = 2k

Throughout, "positive integer" means {1, 2, 3, ...} and second indices of
Block-type symbols live in {0, 1, 2, ...}.

Elements are finite linear combinations of basis symbols with Gaussian
rational coefficients, in canonical form (no zero terms, deterministic
order).  Element literals follow the grammar

    gen  ::= 'L(' int [',' int] ')' | 'C' ['(' int ')']
    elem ::= [scalar '*'] gen (('+'|'-') [scalar '*'] gen)*

with arity checked against the algebra: L takes one index for Virasoro and
two otherwise; C takes an index only for LoopVirasoro (and does not exist
in truncated Block algebras).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import (
    ExcludedSymbolError,
    KindMismatchError,
    NegativeSecondIndexError,
    ParseError,
    TruncationRangeError,
)
from .scalars import GaussianRational, ONE, ScalarLike, scalar, scan_scalar

__all__ = [
    "BasisSymbol",
    "L",
    "C",
    "IndexBox",
    "parse_box",
    "Algebra",
    "Virasoro",
    "LoopVirasoro",
    "BlockHat",
    "Block",
    "BlockTrunc",
    "VIRASORO",
    "LOOP",
    "algebra_from_name",
    "AlgebraElement",
    "parse_element",
    "bracket_basis",
    "jacobi_check",
    "centrality_check",
    "virasoro_embedding_check",
]


class BasisSymbol(tuple):
    """A basis generator: letter 'L' or 'C' plus integer indices.

    Implemented as a tuple subclass so symbols hash and compare fast in the
    dictionaries that back elements and brackets.
    """

    __slots__ = ()

    def __new__(cls, letter: str, *indices: int):
        if letter not in ("L", "C"):
            raise ValueError(f"unknown generator letter {letter!r}")
        return tuple.__new__(cls, (letter, *indices))

    def __str__(self) -> str:
        if len(self) == 1:
            return self[0]
        return f"{self[0]}({','.join(str(i) for i in self[1:])})"

    def __repr__(self) -> str:
        return f"sym({str(self)!r})"


def L(*indices: int) -> BasisSymbol:
    return BasisSymbol("L", *indices)


def C(*indices: int) -> BasisSymbol:
    return BasisSymbol("C", *indices)


def _sym_sort_key(s: BasisSymbol):
    # L-terms before C-terms, then by indices
    return (s[0] != "L", s[1:])


@dataclass(frozen=True)
class IndexBox:
    """A closed rectangle of basis indices.

    ``first`` bounds the first index of L-symbols (inclusive); ``second``
    bounds the second index where the algebra has one (the loop index j, or
    the Block second index i, clipped to its natural range).  C-symbols of
    the loop algebra range over ``second``.
    """

    first: tuple[int, int]
    second: tuple[int, int] | None = None

    def __post_init__(self):
        if self.first[0] > self.first[1]:
            raise ValueError("empty first-index range")
        if self.second is not None and self.second[0] > self.second[1]:
            raise ValueError("empty second-index range")

    def as_dict(self, names: Sequence[str]) -> dict:
        d = {names[0]: list(self.first)}
        if len(names) > 1 and self.second is not None:
            d[names[1]] = list(self.second)
        return d

    def describe(self, names: Sequence[str]) -> str:
        parts = [f"{names[0]}={self.first[0]}..{self.first[1]}"]
        if len(names) > 1 and self.second is not None:
            parts.append(f"{names[1]}={self.second[0]}..{self.second[1]}")
        return ",".join(parts)


DEFAULT_BOX = IndexBox((-3, 3), (-3, 3))


def parse_box(text: str, names: Sequence[str] = ("i", "j")) -> IndexBox:
    """Parse ``"3"`` (symmetric) or ``"i=-2..2,j=0..3"`` (named ranges)."""
    text = text.strip()
    if "=" not in text:
        try:
            n = int(text)
        except ValueError:
            raise ParseError(f"box must be an integer or name=lo..hi list: {text!r}", 0)
        if n < 0:
            raise ParseError("symmetric box size must be nonnegative", 0)
        return IndexBox((-n, n), (-n, n))
    ranges: dict[str, tuple[int, int]] = {}
    for part in text.split(","):
        name, _, span = part.partition("=")
        name = name.strip()
        if name not in names:
            raise ParseError(
                f"unknown index name {name!r} (expected one of {', '.join(names)})", 0
            )
        lo, sep, hi = span.partition("..")
        if not sep:
            raise ParseError(f"range for {name!r} must look like lo..hi", 0)
        try:
            bounds = (int(lo), int(hi))
        except ValueError:
            raise ParseError(f"bad bounds in {part!r}", 0)
        ranges[name] = bounds
    first = ranges.get(names[0])
    if first is None:
        raise ParseError(f"missing range for {names[0]!r}", 0)
    second = ranges.get(names[1]) if len(names) > 1 else None
    return IndexBox(first, second)


BracketTerms = tuple[tuple[BasisSymbol, GaussianRational], ...]


class Algebra:
    """Shared interface of the five algebra kinds."""

    name: str = ""
    index_names: tuple[str, ...] = ()
    l_arity: int = 2
    c_arity: int | None = 0  # None: no central element in the basis

    # -- identity ---------------------------------------------------------

    def _key(self) -> tuple:
        return (type(self),)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Algebra) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return self.describe()

    def describe(self) -> str:
        return self.name

    def as_dict(self) -> dict:
        return {"algebra": self.name}

    # -- symbols ------------------------------------------------------------

    def validate_symbol(self, sym: BasisSymbol) -> None:
        """Raise unless sym belongs to the declared basis of this algebra."""
        if sym[0] == "L":
            if len(sym) - 1 != self.l_arity:
                raise KindMismatchError(
                    f"{self.describe()}: L takes {self.l_arity} "
                    f"index{'es' if self.l_arity > 1 else ''}, got {sym}"
                )
            self._validate_l(sym)
            return
        if self.c_arity is None:
            raise ExcludedSymbolError(f"{self.describe()} has no central element {sym}")
        if len(sym) - 1 != self.c_arity:
            raise KindMismatchError(
                f"{self.describe()}: C takes {self.c_arity} "
                f"index{'es' if self.c_arity != 1 else ''}, got {sym}"
            )

    def _validate_l(self, sym: BasisSymbol) -> None:
        pass

    def symbols_in_box(self, box: IndexBox) -> list[BasisSymbol]:
        raise NotImplementedError

    def declared_central(self, box: IndexBox) -> list[BasisSymbol]:
        """The generators this algebra declares central (within the box)."""
        raise NotImplementedError

    # -- bracket -----------------------------------------------------------

    def bracket_pairs(self, x: BasisSymbol, y: BasisSymbol) -> BracketTerms:
        """Structure-constant expansion of [x, y] as (symbol, coeff) pairs."""
        raise NotImplementedError

    def bracket_basis(self, x: BasisSymbol, y: BasisSymbol) -> "AlgebraElement":
        self.validate_symbol(x)
        self.validate_symbol(y)
        return AlgebraElement(self, dict(self.bracket_pairs(x, y)))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def span(self, *symbols: BasisSymbol) -> "AlgebraElement":
        return AlgebraElement(self, {s: ONE for s in symbols})


class Virasoro(Algebra):
    name = "virasoro"
    index_names = ("i",)
    l_arity = 1
    c_arity = 0

    def symbols_in_box(self, box: IndexBox) -> list[BasisSymbol]:
        return [L(i) for i in range(box.first[0], box.first[1] + 1)] + [C()]

    def declared_central(self, box: IndexBox) -> list[BasisSymbol]:
        return [C()]

    def bracket_pairs(self, x: BasisSymbol, y: BasisSymbol) -> BracketTerms:
        if x[0] == "C" or y[0] == "C":
            return ()
        i, j = x[1], y[1]
        out = []
        if j != i:
            out.append((L(i + j), GaussianRational.from_int(j - i)))
        if i + j == 0 and i * i != 1 and i != 0:
            out.append((C(), GaussianRational._make(i**3 - i, 0, 12)))
        return tuple(out)


class LoopVirasoro(Algebra):
    name = "loop"
    index_names = ("i", "j")
    l_arity = 2
    c_arity = 1

    def symbols_in_box(self, box: IndexBox) -> list[BasisSymbol]:
        second = box.second if box.second is not None else box.first
        syms = [
            L(i, j)
            for i in range(box.first[0], box.first[1] + 1)
            for j in range(second[0], second[1] + 1)
        ]
        syms.extend(C(j) for j in range(second[0], second[1] + 1))
        return syms

    def declared_central(self, box: IndexBox) -> list[BasisSymbol]:
        second = box.second if box.second is not None else box.first
        return [C(j) for j in range(second[0], second[1] + 1)]

    def bracket_pairs(self, x: BasisSymbol, y: BasisSymbol) -> BracketTerms:
        if x[0] == "C" or y[0] == "C":
            return ()
        i, j, k, l = x[1], x[2], y[1], y[2]
        out = []
        if k != i:
            out.append((L(i + k, j + l), GaussianRational.from_int(k - i)))
        if i + k == 0 and i * i > 1:
            out.append((C(j + l), GaussianRational._make(i**3 - i, 0, 12)))
        return tuple(out)


class _BlockBase(Algebra):
    """The Block-type bracket [L(m,i), L(n,j)] = (n(i+q) - m(j+q)) L(m+n,i+j) + central term.

    When ``derived`` is set (Block, BlockTrunc) and -2q is a positive
    integer, the basis omits L(0, -2q), held in ``excluded`` (else None).
    The structure constants never produce it: for m + n = 0 and
    i + j = -2q the coefficient collapses to n(i + j + 2q) = 0.
    ``bracket_pairs`` asserts this on every evaluation, and a coefficient
    landing on that symbol raises ExcludedSymbolError (the structure
    constants are broken).  A truncation keeps the second indices
    k <= i <= l (``l`` is None when untruncated).
    """

    index_names = ("m", "i")
    l_arity = 2
    derived = True
    l: int | None = None

    def __init__(self, q: ScalarLike):
        q = scalar(q)
        if not q:
            raise ValueError("Block-type algebras require q != 0")
        self.q = q
        neg2q = (-(q.mul_int(2))).as_int()
        self.excluded: BasisSymbol | None = (
            L(0, neg2q) if self.derived and neg2q is not None and neg2q >= 1 else None
        )

    def _key(self) -> tuple:
        return (type(self), self.q)

    def as_dict(self) -> dict:
        return {"algebra": self.name, "q": str(self.q)}

    def describe(self) -> str:
        return f"{self.name}(q={self.q})"

    def _validate_l(self, sym: BasisSymbol) -> None:
        if self.l is not None and not (self.k <= sym[2] <= self.l):
            raise TruncationRangeError(
                f"{self.describe()}: second index of {sym} outside [{self.k}, {self.l}]"
            )
        if sym[2] < 0:
            raise NegativeSecondIndexError(
                f"{self.describe()}: second index must be >= 0, got {sym}"
            )
        if sym == self.excluded:
            raise ExcludedSymbolError(
                f"{sym} is excluded in {self.describe()} since -2q = "
                f"{sym[2]} is a positive integer"
            )

    def _coeff(self, m: int, i: int, n: int, j: int) -> GaussianRational:
        # n(i+q) - m(j+q) = (n*i - m*j) + (n - m) q
        return self.q.mul_int(n - m) + GaussianRational.from_int(n * i - m * j)

    def symbols_in_box(self, box: IndexBox) -> list[BasisSymbol]:
        second = box.second if box.second is not None else box.first
        syms = []
        for m in range(box.first[0], box.first[1] + 1):
            for i in range(max(0, second[0]), second[1] + 1):
                s = L(m, i)
                try:
                    self.validate_symbol(s)  # skips L(0, -2q) and, truncated, i outside [k, l]
                except ExcludedSymbolError:
                    continue
                syms.append(s)
        if self.c_arity is not None:
            syms.append(C())
        return syms

    def declared_central(self, box: IndexBox) -> list[BasisSymbol]:
        out = [C()]
        neg_q = (-self.q).as_int()
        if neg_q is not None and neg_q >= 1:
            out.append(L(0, neg_q))
        return out

    def bracket_pairs(self, x: BasisSymbol, y: BasisSymbol) -> BracketTerms:
        if x[0] == "C" or y[0] == "C":
            return ()
        m, i, n, j = x[1], x[2], y[1], y[2]
        if self.l is not None and i + j > self.l:
            return ()  # high second indices die in the truncated quotient
        out = []
        c = self._coeff(m, i, n, j)
        if c:
            s = L(m + n, i + j)
            if s == self.excluded:
                raise ExcludedSymbolError(
                    f"bracket [{x},{y}] produced excluded symbol {s} "
                    f"with coefficient {c}; the structure constants are broken"
                )
            out.append((s, c))
        if m + n == 0 and i == 0 and j == 0 and m * m > 1 and self.c_arity is not None:
            out.append((C(), GaussianRational._make(m**3 - m, 0, 12)))
        return tuple(out)


class BlockHat(_BlockBase):
    name = "block-hat"
    derived = False


class Block(_BlockBase):
    """Derived subalgebra: omits L(0, -2q) when -2q is a positive integer."""

    name = "block"


class BlockTrunc(_BlockBase):
    """Subquotient spanned by L(m, i) with k <= i <= l, without the central C.

    It is not centerless: see ``declared_central``.
    """

    name = "block-trunc"
    c_arity = None

    def __init__(self, q: ScalarLike, k: int, l: int):
        super().__init__(q)
        if not (0 <= k <= l):
            raise ValueError("truncation needs 0 <= k <= l")
        self.k = k
        self.l = l

    def _key(self) -> tuple:
        return (type(self), self.q, self.k, self.l)

    def as_dict(self) -> dict:
        return {"algebra": self.name, "q": str(self.q), "k": self.k, "l": self.l}

    def describe(self) -> str:
        return f"{self.name}(q={self.q},k={self.k},l={self.l})"

    def declared_central(self, box: IndexBox) -> list[BasisSymbol]:
        """L(0, -q) when -q is a positive integer in [k, l], and every central symbol of the box.

        [L(m,i), L(n,j)] = (n(i+q) - m(j+q)) L(m+n,i+j) survives only for
        j in [k, l - i].  L(m,i) is central when that range is empty (the
        rows i > l - k); otherwise the coefficient must vanish for every n,
        so i = -q, and m(j+q) = 0 on the range.  The bracket is homogeneous
        in both indices, so the centre is spanned by basis symbols.
        """
        q = self.q

        def central(m: int, i: int) -> bool:
            js = range(self.k, self.l - i + 1)
            return not js or (q == -i and (m == 0 or all(q == -j for j in js)))

        out = [s for s in self.symbols_in_box(box) if central(s[1], s[2])]
        neg_q = (-q).as_int()
        if neg_q is not None and self.k <= neg_q <= self.l and L(0, neg_q) not in out:
            out.insert(0, L(0, neg_q))
        return out


VIRASORO = Virasoro()
LOOP = LoopVirasoro()


def algebra_from_name(
    name: str,
    q: ScalarLike | None = None,
    k: int | None = None,
    l: int | None = None,
) -> Algebra:
    """Build an algebra from its CLI name plus parameters."""
    if name == "virasoro":
        return VIRASORO
    if name == "loop":
        return LOOP
    if name in ("block", "block-hat", "block-trunc"):
        if q is None:
            raise ValueError(f"--algebra {name} requires --q")
        if name == "block":
            return Block(q)
        if name == "block-hat":
            return BlockHat(q)
        if k is None or l is None:
            raise ValueError("--algebra block-trunc requires --k and --l")
        return BlockTrunc(q, k, l)
    raise ValueError(f"unknown algebra {name!r}")


class AlgebraElement:
    """A finite linear combination of basis symbols of one algebra."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: Algebra, terms: dict[BasisSymbol, ScalarLike]):
        self.algebra = algebra
        clean: dict[BasisSymbol, GaussianRational] = {}
        for s, c in terms.items():
            algebra.validate_symbol(s)
            c = scalar(c)
            if c:
                clean[s] = c
        self.terms = clean

    @staticmethod
    def _raw(algebra: Algebra, terms: dict[BasisSymbol, GaussianRational]) -> "AlgebraElement":
        e = object.__new__(AlgebraElement)
        e.algebra = algebra
        e.terms = terms
        return e

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.algebra != other.algebra:
            raise KindMismatchError(
                f"elements of {self.algebra.describe()} and {other.algebra.describe()} do not mix"
            )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AlgebraElement):
            return self.algebra == other.algebra and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.algebra, frozenset(self.terms.items())))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            acc = terms.get(s)
            acc = c if acc is None else acc + c
            if acc:
                terms[s] = acc
            else:
                terms.pop(s, None)
        return AlgebraElement._raw(self.algebra, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._raw(self.algebra, {s: -c for s, c in self.terms.items()})

    def __mul__(self, c: ScalarLike) -> "AlgebraElement":
        c = scalar(c)
        if not c:
            return AlgebraElement._raw(self.algebra, {})
        return AlgebraElement._raw(self.algebra, {s: x * c for s, x in self.terms.items()})

    __rmul__ = __mul__

    def bracket(self, other: "AlgebraElement") -> "AlgebraElement":
        """Bilinear extension of the basis bracket."""
        self._require_same(other)
        acc: dict[BasisSymbol, GaussianRational] = {}
        for x, cx in self.terms.items():
            for y, cy in other.terms.items():
                c = cx * cy
                for s, sc in self.algebra.bracket_pairs(x, y):
                    prev = acc.get(s)
                    val = c * sc if prev is None else prev + c * sc
                    if val:
                        acc[s] = val
                    else:
                        acc.pop(s, None)
        return AlgebraElement._raw(self.algebra, acc)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        from .polynomials import _render_terms  # shared +/- joining rules

        pieces = [(self.terms[s], str(s)) for s in sorted(self.terms, key=_sym_sort_key)]
        return _render_terms(pieces)

    def __repr__(self) -> str:
        return f"<{self.algebra.describe()} element {self}>"


def bracket_basis(algebra: Algebra, x: BasisSymbol, y: BasisSymbol) -> AlgebraElement:
    """[x, y] for two basis symbols; validates both against the algebra."""
    return algebra.bracket_basis(x, y)


def parse_element(algebra: Algebra, text: str) -> AlgebraElement:
    """Parse an element literal against an algebra's basis and arities."""
    i = 0
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def scan_gen(i: int) -> tuple[BasisSymbol, int]:
        if i >= n or text[i] not in "LC":
            raise ParseError("expected a generator L(...) or C", i)
        letter = text[i]
        i += 1
        indices: list[int] = []
        if i < n and text[i] == "(":
            i = skip_ws(i + 1)
            while True:
                neg = False
                if i < n and text[i] == "-":
                    neg = True
                    i += 1
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                if j == i:
                    raise ParseError("expected an integer index", i)
                indices.append(-int(text[i:j]) if neg else int(text[i:j]))
                i = skip_ws(j)
                if i < n and text[i] == ",":
                    i = skip_ws(i + 1)
                    continue
                if i < n and text[i] == ")":
                    i += 1
                    break
                raise ParseError("expected ',' or ')'", i)
        elif letter == "L":
            raise ParseError("L requires parenthesized indices", i)
        sym = BasisSymbol(letter, *indices)
        try:
            algebra.validate_symbol(sym)
        except (KindMismatchError, ExcludedSymbolError) as exc:
            raise ParseError(str(exc), i) from exc
        return sym, i

    terms: dict[BasisSymbol, GaussianRational] = {}
    i = skip_ws(i)
    if i == n:
        raise ParseError("empty element", i)
    if text[i:].strip() == "0":
        return AlgebraElement._raw(algebra, {})
    first = True
    while True:
        sign = 1
        if not first:
            if i >= n:
                break
            if text[i] == "+":
                i = skip_ws(i + 1)
            elif text[i] == "-":
                sign = -1
                i = skip_ws(i + 1)
            else:
                raise ParseError(f"expected '+' or '-', found {text[i]!r}", i)
        elif text[i] == "-" and skip_ws(i + 1) < n and text[skip_ws(i + 1)] in "LC":
            sign, i = -1, skip_ws(i + 1)  # leading minus before a generator
        first = False
        coef = ONE
        if i < n and (text[i].isdigit() or text[i] == "-"):
            coef, i = scan_scalar(text, i)
            j = skip_ws(i)
            if j >= n or text[j] != "*":
                raise ParseError("coefficient must be followed by '*' and a generator", i)
            i = skip_ws(j + 1)
        sym, i = scan_gen(i)
        if sign < 0:
            coef = -coef
        acc = terms.get(sym)
        acc = coef if acc is None else acc + coef
        if acc:
            terms[sym] = acc
        else:
            terms.pop(sym, None)
        i = skip_ws(i)
        if i == n:
            break
    return AlgebraElement._raw(algebra, terms)


# ---------------------------------------------------------------------------
# Structural checkers
# ---------------------------------------------------------------------------


@dataclass
class JacobiReport:
    """Result of sweeping the Jacobi identity over a box of basis symbols.

    Antisymmetry is checked on every unordered pair and the cyclic Jacobi
    sum on every unordered triple of distinct symbols; together these imply
    the identity for all ordered triples (repetitions reduce to
    antisymmetry).  Both passes read a table of brackets that
    ``jacobi_check`` builds for the one call and drops on return;
    ``brackets_evaluated`` is its number of entries, which is the number of
    ``bracket_pairs`` calls the sweep made.
    """

    algebra: Algebra
    box: IndexBox
    pairs_checked: int = 0
    triples_checked: int = 0
    brackets_evaluated: int = 0
    violations: list[str] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.violations is None:
            self.violations = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "check": "jacobi",
            **self.algebra.as_dict(),
            "box": self.box.as_dict(self.algebra.index_names),
            "pairs_checked": self.pairs_checked,
            "triples_checked": self.triples_checked,
            "brackets_evaluated": self.brackets_evaluated,
            "violations": self.violations,
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"jacobi {self.algebra.describe()} "
            f"box {self.box.describe(self.algebra.index_names)}: "
            f"{self.pairs_checked} pairs, {self.triples_checked} triples -> {status}"
        )


# one jacobi_check table entry: (symbol index, re, im) per term, over the
# sweep's common denominator
_TableEntry = tuple[tuple[int, int, int], ...]


def jacobi_check(algebra: Algebra, box: IndexBox = DEFAULT_BOX) -> JacobiReport:
    """Verify antisymmetry and the Jacobi identity on every triple in the box.

    Both passes read one structure table, built first and local to the
    call.  Its rows are [s, w] for every box symbol w, one row per symbol
    s that is in the box or that some in-box bracket reaches: exactly the
    brackets the cyclic sums take, so ``bracket_pairs`` is called once per
    entry.  An entry lists (symbol index, re, im) for each term, the
    coefficient being (re + im*i)/D over one common denominator D, the lcm
    of every denominator met so far; when a coefficient brings a new one,
    D grows and the stored entries are rescaled.  Equal entries are stored
    once.  Each term of a cyclic sum is a product of two numerators over
    D^2, so the sum is an exact integer sum over D^2; only a nonzero one is
    turned back into scalars, to write its violation.
    """
    syms = algebra.symbols_in_box(box)
    n = len(syms)
    bp = algebra.bracket_pairs
    symbols = list(syms)  # symbol index -> symbol; box symbols first
    index = {s: k for k, s in enumerate(syms)}
    table: list[list[_TableEntry]] = []
    shared: dict[_TableEntry, _TableEntry] = {}
    den = 1

    def tabulate(x: BasisSymbol) -> None:
        nonlocal den, shared
        row: list[_TableEntry] = []
        table.append(row)
        for w in syms:
            terms = bp(x, w)
            for _, c in terms:
                if den % c.d:
                    f = c.d // gcd(den, c.d)
                    den *= f
                    scaled = {e: tuple((k, re * f, im * f) for k, re, im in e) for e in shared}
                    for r in table:
                        r[:] = [scaled[e] for e in r]
                    shared = {e: e for e in scaled.values()}
            entry = []
            for s, c in terms:
                k = index.get(s)
                if k is None:
                    k = index[s] = len(symbols)
                    symbols.append(s)
                m = den // c.d
                entry.append((k, c.a * m, c.b * m))
            entry = tuple(entry)
            row.append(shared.setdefault(entry, entry))

    for x in syms:
        tabulate(x)
    reached = len(symbols)  # box symbols, then those in-box brackets reach
    for k in range(n, reached):
        tabulate(symbols[k])

    report = JacobiReport(algebra, box, brackets_evaluated=len(table) * n)
    violations = report.violations
    # antisymmetry on unordered pairs (and [x,x] = 0 on the diagonal)
    for a in range(n):
        x, row = syms[a], table[a]
        if row[a]:
            violations.append(f"[{x},{x}] != 0")
        for b in range(a + 1, n):
            fwd = {k: (re, im) for k, re, im in row[b]}
            for k, re, im in table[b][a]:
                p = fwd.get(k)
                if p is not None:
                    re += p[0]
                    im += p[1]
                if re or im:
                    fwd[k] = (re, im)
                else:
                    fwd.pop(k, None)
            if fwd:
                y = syms[b]
                violations.append(f"[{x},{y}] + [{y},{x}] != 0")
    report.pairs_checked = n * (n - 1) // 2
    # cyclic Jacobi sum on unordered triples of distinct symbols
    den2 = den * den
    for a in range(n):
        ra = table[a]
        for b in range(a + 1, n):
            rb = table[b]
            xy = ra[b]
            for c in range(b + 1, n):
                acc: dict[int, tuple[int, int]] = {}
                for inner, z in ((xy, c), (rb[c], a), (table[c][a], b)):
                    for s, re1, im1 in inner:
                        for t, re2, im2 in table[s][z]:
                            re = re1 * re2 - im1 * im2
                            im = re1 * im2 + im1 * re2
                            p = acc.get(t)
                            if p is not None:
                                re += p[0]
                                im += p[1]
                            acc[t] = (re, im)
                nonzero = {
                    symbols[t]: GaussianRational._make(re, im, den2)
                    for t, (re, im) in acc.items()
                    if re or im
                }
                if nonzero:
                    violations.append(
                        f"jacobi({syms[a]},{syms[b]},{syms[c]}) = "
                        + str(AlgebraElement._raw(algebra, nonzero))
                    )
    report.triples_checked = n * (n - 1) * (n - 2) // 6
    return report


@dataclass
class CentralityReport:
    algebra: Algebra
    element: str
    box: IndexBox
    central: bool
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.central

    def as_dict(self) -> dict:
        return {
            "check": "centrality",
            **self.algebra.as_dict(),
            "element": self.element,
            "box": self.box.as_dict(self.algebra.index_names),
            "central": self.central,
            "witness": self.witness,
        }

    def summary(self) -> str:
        if self.central:
            return f"central in box: {self.element}"
        return f"NOT central: {self.element}; witness {self.witness}"


def centrality_check(
    algebra: Algebra, z: "AlgebraElement | BasisSymbol", box: IndexBox = DEFAULT_BOX
) -> CentralityReport:
    """Check [z, x] = 0 against every basis symbol x in the box."""
    if isinstance(z, BasisSymbol):
        algebra.validate_symbol(z)
        elem = AlgebraElement._raw(algebra, {z: ONE})
    else:
        elem = z
    for x in algebra.symbols_in_box(box):
        b = elem.bracket(AlgebraElement._raw(algebra, {x: ONE}))
        if not b.is_zero:
            return CentralityReport(
                algebra, str(elem), box, False, witness=f"[{elem}, {x}] = {b}"
            )
    return CentralityReport(algebra, str(elem), box, True)


@dataclass
class EmbeddingReport:
    """Result of checking that rescaled zero-row generators of a Block
    algebra bracket exactly like the Virasoro generators they mirror."""

    q: GaussianRational
    box: IndexBox
    pairs_checked: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "check": "virasoro-embedding",
            "q": str(self.q),
            "box": self.box.as_dict(("m",)),
            "pairs_checked": self.pairs_checked,
            "failures": self.failures,
            "ok": self.ok,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.failures)})"
        return f"virasoro embedding into block(q={self.q}): {self.pairs_checked} pairs -> {status}"


def virasoro_embedding_check(q: ScalarLike, box: IndexBox = DEFAULT_BOX) -> EmbeddingReport:
    """Verify that phi(L_m) = q^-1 L(m, 0), phi(C) = q^-2 C respects brackets.

    The central scaling q^-2 is forced: it is the unique choice matching
    the (m^3 - m)/12 cocycle on both sides.
    """
    q = scalar(q)
    target = Block(q)
    qinv = q.inverse()
    qinv2 = qinv * qinv

    def phi(sym: BasisSymbol) -> AlgebraElement:
        if sym[0] == "C":
            return AlgebraElement._raw(target, {C(): qinv2})
        return AlgebraElement._raw(target, {L(sym[1], 0): qinv})

    vir_syms = VIRASORO.symbols_in_box(box)
    failures: list[str] = []
    pairs = 0
    for a in range(len(vir_syms)):
        for b in range(a, len(vir_syms)):
            x, y = vir_syms[a], vir_syms[b]
            lhs_vir = VIRASORO.bracket_basis(x, y)
            lhs = target.zero()
            for s, c in lhs_vir.terms.items():
                lhs = lhs + phi(s) * c
            rhs = phi(x).bracket(phi(y))
            pairs += 1
            if lhs != rhs:
                failures.append(f"phi([{x},{y}]) = {lhs} but [phi {x}, phi {y}] = {rhs}")
    return EmbeddingReport(q, box, pairs, failures)
