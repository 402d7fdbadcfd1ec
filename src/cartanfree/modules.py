"""The rank-one free module families and their action tables.

Each family realizes its algebra on the polynomial space C[t] (Gaussian
rational coefficients here), with L(0,...,0) acting as multiplication by t;
a vector f(t) is literally f(L_{0,..,0}) applied to the generator 1.  So a
family is fixed by its entries x . 1, and every basis symbol x acts by the
one rank-one rule

    x . f(t) = f(t - s_x) * (x . 1),   s_x = i for L(i,...), m*q for L(m,j) in Block(q).

The families differ only in their entries:

* ``OmegaVir(lam, alpha)``          Virasoro:       L(i) . 1 = lam^i (t - i*alpha)
* ``OmegaLoop(lam, mu, alpha)``     loop algebra:   L(i,j) . 1 = lam^(i-j) mu^j (t - i*alpha)
* ``OmegaBlock(q, lam, alpha)``     Block(q), q not in {0, -1}:
                                    L(m,0) . 1 = lam^m (t - m q alpha); rows i >= 1 act as 0
* ``OmegaBlockHV(lam, alpha, beta)``  Block(-1):
                                    L(m,0) . 1 = lam^m (t + m*alpha),
                                    L(m,1) . 1 = lam^m beta; rows i >= 2 act as 0
* ``TensorOmega(factors)``          tensor products of loop factors acting on C[t1..tm]
                                    by the Leibniz rule: each factor's rule in its own slot

Central generators act as zero in every family.

An ActionTable records the image of 1 under each basis symbol in a box;
``derive_parameters`` replays the classification argument on such a table:
it reads the candidate parameters off the distinguished entries, then
cross-checks every entry against the family's closed form and every
bracket constraint the box supports.
"""

from __future__ import annotations

import json
from typing import Sequence

from .algebras import (
    Algebra,
    AlgebraElement,
    BasisSymbol,
    Block,
    IndexBox,
    L,
    LOOP,
    VIRASORO,
    _Record,
    _sym_sort_key,
    algebra_from_name,
    parse_element,
)
from .errors import (
    DegreeMismatchError,
    InconsistentEntryError,
    KindMismatchError,
    NotInSubmoduleError,
    ParseError,
)
from .linalg import SpanBasis
from .polynomials import (
    MultiPolynomial,
    P_ONE,
    P_ZERO,
    Polynomial,
    _canon,
    constant,
    parse_polynomial,
    rank_one_rule,
)
from .scalars import GaussianRational, ONE, ZERO, ScalarLike, scalar

__all__ = [
    "ModuleSpec",
    "OmegaVir",
    "OmegaLoop",
    "OmegaBlock",
    "OmegaBlockHV",
    "TensorOmega",
    "ActionTable",
    "build_action_table",
    "match_template",
    "Derivation",
    "derive_parameters",
    "strip_t",
]


class ModuleSpec:
    """Common interface of the module families.

    A rank-one family is fixed by its entries x . 1: ``act_basis`` applies
    the one rule x . f(t) = f(t - s_x) * (x . 1).  A family defines
    ``entry`` (parameter powers from the ``_power`` memo) and ``params``;
    the rule, read off the integer numerators of x . 1, is memoized once
    per symbol as (shift, root, lead, kernel).  (shift, root, lead) factor
    it with x . 1 = lead * (t - root), or root None when x . 1 is the
    constant lead; ``_classes`` compares them.  kernel keeps s_x and x . 1
    as integer numerators (``polynomials.rank_one_rule``), and ``act_basis``
    runs it as one fused integer pass.  ``TensorOmega`` runs the same kernel
    in each tensor slot.

    One grouping (``_classes``) serves both users of this factoring, and
    each runs only the elimination its question needs: the closure probe
    acts with the members that grow the rank of their class's lead span
    (``probe_operators``), and ``analysis.module_axiom_check`` also weighs
    every other member over them (``operator_classes``).
    """

    family: str = ""
    algebra: Algebra
    nvars = 1

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self._rules: dict[BasisSymbol, tuple] = {}
        self._powers: dict[tuple[str, int], GaussianRational] = {}

    def entry(self, sym: BasisSymbol) -> Polynomial:
        """x . 1 for a valid basis symbol x; P_ZERO when x annihilates."""
        raise NotImplementedError

    def _power(self, name: str, k: int) -> GaussianRational:
        """The parameter ``name`` (lam or mu) to the power k, memoized on this spec."""
        if (name, k) not in self._powers:
            self._powers[name, k] = getattr(self, name) ** k
        return self._powers[name, k]

    def _rule(self, sym: BasisSymbol) -> tuple:
        """(shift, root, lead, kernel) of sym, validated and factored on first use; () acts as 0.

        x . 1 = (r0 + i0*i + (r1 + i1*i)*t)/d: lead = (r1 + i1*i)/d, root = -(r0 + i0*i)/(r1 + i1*i).
        """
        rule = self._rules.get(sym)
        if rule is None:
            self.algebra.validate_symbol(sym)
            e = self.entry(sym)
            if not e:
                rule = ()
            else:
                shift = _shift_amount(self.algebra, sym)
                make, re, im, d = GaussianRational._make, e._re, e._im, e._den
                if len(re) > 2:
                    _read_linear(e, sym)  # raises DegreeMismatchError
                if len(re) == 1:
                    root, lead = None, make(re[0], im[0], d)
                else:
                    (r0, r1), (i0, i1) = re, im
                    lead, root = make(r1, i1, d), make(-r0 * r1 - i0 * i1, r0 * i1 - i0 * r1, r1 * r1 + i1 * i1)
                rule = (shift, root, lead, rank_one_rule(shift, e))
            self._rules[sym] = rule
        return rule

    def act_basis(self, sym: BasisSymbol, f):
        """Image of f under a basis symbol (exact): f(t - s_x) * (x . 1), in one integer pass."""
        rule = self._rule(sym)
        if not rule:
            return P_ZERO
        return f.apply_rank_one(rule[3])

    def _slots(self) -> Sequence["ModuleSpec"]:
        """The specs whose rules act on the tensor slots, in slot order."""
        return (self,)

    def _classes(self, syms: Sequence[BasisSymbol]) -> list[list[tuple[BasisSymbol, list]]]:
        """syms grouped by every slot's (shift, root), as (symbol, lead vector) pairs per class, in the order of syms.

        In slot k a symbol acts as lead_k * O_k, with the slot operator O_k
        fixed by (shift_k, root_k), so a class's members act as lead-weighted
        sums of the same slot operators (the symbols acting as 0: lead 0).
        """
        slots = self._slots()
        classes: dict[tuple, list] = {}
        for sym in syms:
            rules = [slot._rule(sym) for slot in slots]
            key = tuple(rule[:2] if rule else None for rule in rules)
            classes.setdefault(key, []).append((sym, [rule[2] if rule else ZERO for rule in rules]))
        return list(classes.values())

    def operator_classes(self, syms: Sequence[BasisSymbol]) -> list[tuple[list, list]]:
        """The classes of ``_classes`` as (representatives, members), weighed for the axiom sweep.

        The class's lead vectors are the columns of one ``SpanBasis`` with a
        row per slot.  Its pivot columns (lead vectors independent of those
        before them) are the representatives; any other symbol x is a
        member, whose kernel vector (``SpanBasis.kernel``) gives
        lead_x = sum_g w_g * lead_g, so x acts as sum_g w_g * g.  The zero
        class has no representative and empty weights.  Representatives are
        symbols, members (symbol, [(g, w_g)]) pairs, both in the order of syms.
        """
        weight = GaussianRational._make  # w_g = -x_g / x_f
        out = []
        for cls in self._classes(syms):
            basis = SpanBasis(len(cls))
            for k in range(len(self._slots())):
                basis.insert([leads[k] for _, leads in cls])
            members = [
                (cls[f][0], [(cls[p][0], weight(-a, -b, x[f][0])) for p, (a, b) in x.items() if p != f])
                for f, x in basis.kernel()
            ]
            out.append(([cls[p][0] for p in basis.pivots], members))
        return out

    def probe_operators(self, syms: Sequence[BasisSymbol]) -> list[tuple[BasisSymbol, "tuple[int, ...] | None"]]:
        """The operators a closure probe acts with: (symbol, slots) pairs, slots None for every slot.

        In a class of ``_classes`` every member x acts as
        sum_s lead_s(x) * O_s, with the class's slot operators O_s.  One
        ``SpanBasis`` over the slots takes the members' lead vectors in
        order, and those that grow its rank are the representatives (the
        pivot columns of ``operator_classes``); no weight is solved.  When
        the unit vector of slot s is a row of it, O_s is an exact
        combination of member actions, and the first representative g with
        lead_s(g) != 0 acts in slot s alone: the operator (g, (s,)), whose
        image of a monomial lies on that monomial's slot-s line.  The
        representatives that complete those unit vectors to a basis of the
        lead span act on the remaining slots, or whole (slots None) when no
        slot separates.  So the operators' images of a vector span exactly
        the members' images, with as many operators as representatives.
        For one variable every class that acts gives one one-slot operator;
        a repeated (lambda, mu) pair of a tensor keeps two slots together.
        """
        n = len(self._slots())
        out: list = []
        for cls in self._classes(syms):
            span = SpanBasis(n)
            reps = [(g, v) for g, v in cls if span.insert(v)]
            apart = [p for p, row in zip(span.pivots, span.num_rows) if len(row) == 1]
            for s in apart:
                out.append((next(g for g, v in reps if v[s]), (s,)))
            if len(apart) < len(reps):
                rest = SpanBasis(n)
                for s in apart:
                    rest.insert({s: (1, 0)})
                others = tuple(s for s in range(n) if s not in apart) if apart else None
                out += [(g, others) for g, v in reps if rest.insert(v)]
        return out

    def vector(self, f):
        """f as a vector of this module; KindMismatchError when it is none.

        Callers validate once at their entry points (act, the axiom check,
        probe seeds); act_basis trusts its argument.  The rank-one families
        act on C[t], so indexed variables are rejected.
        """
        if not isinstance(f, Polynomial):
            raise KindMismatchError(
                f"{f} uses indexed variables, but {self.family} vectors are polynomials in t"
            )
        return f

    def act(self, e: AlgebraElement, f):
        """Linear extension of act_basis to elements."""
        if e.algebra != self.algebra:
            raise KindMismatchError(
                f"element of {e.algebra.describe()} cannot act on a {self.family} module"
            )
        f = self.vector(f)
        acc = f.scale(0)
        for s, c in e.terms.items():
            acc = acc + self.act_basis(sym=s, f=f) * c
        return acc

    def one(self):
        """The free generator (the constant polynomial 1)."""
        return P_ONE

    def params(self) -> dict[str, GaussianRational]:
        raise NotImplementedError

    def as_dict(self) -> dict:
        return {"family": self.family, **{k: str(v) for k, v in self.params().items()}}

    def describe(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.family}({inner})"

    def __repr__(self) -> str:
        return self.describe()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModuleSpec)
            and self.family == other.family
            and self.params() == other.params()
        )

    def __hash__(self) -> int:
        return hash((self.family, tuple(sorted((k, str(v)) for k, v in self.params().items()))))


def _nonzero(name: str, v: ScalarLike) -> GaussianRational:
    v = scalar(v)
    if not v:
        raise ValueError(f"{name} must be nonzero")
    return v


def _linear(lead: GaussianRational, root: GaussianRational) -> Polynomial:
    """lead * (t - root), built on the integer numerators of lead and root with one ``_canon``.

    With lead = (la + lb*i)/ld and root = (ra + rb*i)/rd, over ld * rd the
    constant term -lead * root has numerator -(la*ra - lb*rb) - (la*rb + lb*ra)*i
    and the coefficient of t has numerator rd * (la + lb*i).
    """
    la, lb, ld = lead.a, lead.b, lead.d
    ra, rb, rd = root.a, root.b, root.d
    return _canon([lb * rb - la * ra, la * rd], [-la * rb - lb * ra, lb * rd], ld * rd)


class OmegaVir(ModuleSpec):
    family = "omega-vir"

    def __init__(self, lam: ScalarLike, alpha: ScalarLike):
        super().__init__(VIRASORO)
        self.lam = _nonzero("lambda", lam)
        self.alpha = scalar(alpha)

    def params(self):
        return {"lambda": self.lam, "alpha": self.alpha}

    def entry(self, sym: BasisSymbol) -> Polynomial:
        if sym[0] == "C":
            return P_ZERO
        i = sym[1]
        return _linear(self._power("lam", i), self.alpha.mul_int(i))


class OmegaLoop(ModuleSpec):
    family = "omega-loop"

    def __init__(self, lam: ScalarLike, mu: ScalarLike, alpha: ScalarLike):
        super().__init__(LOOP)
        self.lam = _nonzero("lambda", lam)
        self.mu = _nonzero("mu", mu)
        self.alpha = scalar(alpha)

    def params(self):
        return {"lambda": self.lam, "mu": self.mu, "alpha": self.alpha}

    def entry(self, sym: BasisSymbol) -> Polynomial:
        if sym[0] == "C":
            return P_ZERO
        i, j = sym[1], sym[2]
        return _linear(self._power("lam", i - j) * self._power("mu", j), self.alpha.mul_int(i))


class OmegaBlock(ModuleSpec):
    """Block(q) family for q outside {0, -1}: only the i = 0 row acts."""

    family = "omega-block"

    def __init__(self, q: ScalarLike, lam: ScalarLike, alpha: ScalarLike):
        q = _nonzero("q", q)
        if q == -1:
            raise ValueError("q = -1 belongs to the beta family (OmegaBlockHV)")
        super().__init__(Block(q))
        self.q = q
        self.lam = _nonzero("lambda", lam)
        self.alpha = scalar(alpha)

    def params(self):
        return {"q": self.q, "lambda": self.lam, "alpha": self.alpha}

    def entry(self, sym: BasisSymbol) -> Polynomial:
        if sym[0] == "C" or sym[2] != 0:
            return P_ZERO
        m = sym[1]
        return _linear(self._power("lam", m), self.q.mul_int(m) * self.alpha)


class OmegaBlockHV(ModuleSpec):
    """Block(-1) family carrying the extra beta parameter on the i = 1 row."""

    family = "omega-block-hv"

    def __init__(self, lam: ScalarLike, alpha: ScalarLike, beta: ScalarLike):
        super().__init__(Block(-1))
        self.lam = _nonzero("lambda", lam)
        self.alpha = scalar(alpha)
        self.beta = scalar(beta)
        self.q = scalar(-1)

    def params(self):
        return {"lambda": self.lam, "alpha": self.alpha, "beta": self.beta}

    def entry(self, sym: BasisSymbol) -> Polynomial:
        if sym[0] == "C" or sym[2] >= 2:
            return P_ZERO
        m = sym[1]
        if sym[2] == 1:
            return constant(self._power("lam", m) * self.beta)
        return _linear(self._power("lam", m), self.alpha.mul_int(-m))


class TensorOmega(ModuleSpec):
    """Tensor product of loop-family factors acting on C[t1..tm].

    A symbol acts by the Leibniz rule: each factor's rank-one rule is
    applied to that factor's tensor slot, and the results are summed.
    """

    family = "tensor-omega"

    def __init__(self, factors: Sequence[tuple[ScalarLike, ScalarLike, ScalarLike]]):
        if len(factors) < 1:
            raise ValueError("need at least one tensor factor")
        super().__init__(LOOP)
        self.factors = [OmegaLoop(lam, mu, alpha) for lam, mu, alpha in factors]
        self.nvars = len(self.factors)

    def params(self):
        out: dict[str, GaussianRational] = {}
        for k, factor in enumerate(self.factors, start=1):
            out.update({f"{name}{k}": v for name, v in factor.params().items()})
        return out

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "factors": [
                {name: str(v) for name, v in factor.params().items()} for factor in self.factors
            ],
        }

    def _slots(self) -> Sequence[ModuleSpec]:
        return self.factors

    def one(self) -> MultiPolynomial:
        return MultiPolynomial.constant(self.nvars, 1)

    def vector(self, f) -> MultiPolynomial:
        """f embedded in C[t1..tm]: t becomes t1 and missing variables are padded."""
        if isinstance(f, Polynomial):
            return MultiPolynomial.from_polynomial(f, self.nvars)
        if f.nvars < self.nvars:
            return f.padded(self.nvars)
        if f.nvars != self.nvars:
            raise KindMismatchError(
                f"vector in {f.nvars} variables for a {self.nvars}-factor tensor module"
            )
        return f

    def act_basis(self, sym: BasisSymbol, f: MultiPolynomial) -> MultiPolynomial:
        f = self.vector(f)
        rules = [(k, factor._rule(sym)) for k, factor in enumerate(self.factors)]
        return f.apply_rank_one([(k, rule[3]) for k, rule in rules if rule])


# ---------------------------------------------------------------------------
# Action tables
# ---------------------------------------------------------------------------


class ActionTable(_Record):
    """Images of the free generator 1 under each basis symbol in a box."""

    def __init__(self, algebra: Algebra, box: IndexBox, entries: dict[BasisSymbol, Polynomial] | None = None):
        self.algebra = algebra
        self.box = box
        self.entries = {} if entries is None else entries
        for sym in self.entries:
            algebra.validate_symbol(sym)

    def to_json(self) -> str:
        body = {
            **self.algebra.as_dict(),
            "box": self.box.as_dict(self.algebra.index_names),
            "entries": [
                {"sym": str(s), "poly": str(p)}
                for s, p in sorted(self.entries.items(), key=lambda kv: _sym_sort_key(kv[0]))
            ],
        }
        return json.dumps(body, indent=2)

    @staticmethod
    def from_json(text: str) -> "ActionTable":
        try:
            body = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid action-table JSON: {exc.msg}", exc.pos) from exc
        if not isinstance(body, dict):
            raise InconsistentEntryError("an action table must be a JSON object")
        q, k, l = body.get("q"), body.get("k"), body.get("l")
        if not (q is None or isinstance(q, str) or type(q) is int):
            raise InconsistentEntryError(f"table field 'q' must be a scalar string or an integer, not {q!r}")
        for key, v in (("k", k), ("l", l)):
            if not (v is None or type(v) is int):
                raise InconsistentEntryError(f"table field {key!r} must be an integer, not {v!r}")
        algebra = algebra_from_name(
            body.get("algebra"), q=scalar(q) if q is not None else None, k=k, l=l
        )
        box_spec = body.get("box", {})
        names = algebra.index_names
        if not isinstance(box_spec, dict) or names[0] not in box_spec:
            raise InconsistentEntryError(f"table box must bound index {names[0]!r}")
        first = _table_bound(box_spec, names[0])
        second = _table_bound(box_spec, names[1]) if len(names) > 1 and names[1] in box_spec else None
        box = IndexBox(first, second)
        items = body.get("entries", [])
        if not isinstance(items, list):
            raise InconsistentEntryError("table field 'entries' must be a list")
        entries: dict[BasisSymbol, Polynomial] = {}
        for item in items:
            if not isinstance(item, dict) or not all(isinstance(item.get(f), str) for f in ("sym", "poly")):
                raise InconsistentEntryError(f"table entry {item!r} needs string fields 'sym' and 'poly'")
            elem = parse_element(algebra, item["sym"])
            if len(elem.terms) != 1 or ONE not in elem.terms.values():
                raise ParseError(f"entry key {item['sym']!r} must be a bare symbol", 0)
            (sym,) = elem.terms
            if sym in entries:
                raise InconsistentEntryError(f"table entry {item['sym']!r} repeats the symbol {sym}")
            poly = parse_polynomial(item["poly"])
            if isinstance(poly, MultiPolynomial):
                raise ParseError("action-table entries must be univariate", 0)
            entries[sym] = poly
        return ActionTable(algebra, box, entries)


def _table_bound(box_spec: dict, name: str) -> tuple[int, int]:
    bound = box_spec[name]
    if not (isinstance(bound, list) and len(bound) == 2 and all(type(x) is int for x in bound)):
        raise InconsistentEntryError(f"table box bound {name!r} must be two integers [lo, hi], not {bound!r}")
    return bound[0], bound[1]


def build_action_table(spec: ModuleSpec, box: IndexBox) -> ActionTable:
    """Tabulate sym . 1 over the box for a rank-one family."""
    if isinstance(spec, TensorOmega):
        raise KindMismatchError("action tables are defined for the rank-one families")
    entries = {sym: spec.entry(sym) for sym in spec.algebra.symbols_in_box(box)}
    return ActionTable(spec.algebra, box, entries)


class MatchResult(_Record):
    """Outcome of ``match_template``; ``entries_checked`` counts the entries compared."""

    def __init__(
        self,
        matched: bool,
        first_mismatch: BasisSymbol | None = None,
        expected: Polynomial | None = None,
        found: Polynomial | None = None,
        entries_checked: int = 0,
    ):
        self.matched = matched
        self.first_mismatch = first_mismatch
        self.expected = expected
        self.found = found
        self.entries_checked = entries_checked

    def __bool__(self) -> bool:
        return self.matched


def match_template(table: ActionTable, spec: ModuleSpec) -> MatchResult:
    """Does every table entry equal the closed form of the given family?"""
    if isinstance(spec, TensorOmega):
        raise KindMismatchError("action tables are defined for the rank-one families")
    if spec.algebra != table.algebra:
        raise KindMismatchError(
            f"table over {table.algebra.describe()} vs family over {spec.algebra.describe()}"
        )
    for n, sym in enumerate(sorted(table.entries, key=_sym_sort_key), start=1):
        expected = spec.entry(sym)
        if table.entries[sym] != expected:
            return MatchResult(False, sym, expected, table.entries[sym], n)
    return MatchResult(True, entries_checked=len(table.entries))


class Derivation(_Record):
    """Outcome of replaying the classification argument on a finite table.

    ``params`` is filled iff the table is consistent with the family on the
    whole box; otherwise ``violation`` names the first identity that fails.
    The box actually checked is echoed, because a finite table can only
    certify the box it covers.
    """

    def __init__(
        self,
        family: str,
        box: IndexBox,
        params: dict[str, GaussianRational] | None = None,
        violation: str | None = None,
        entries_checked: int = 0,
        bracket_constraints_checked: int = 0,
    ):
        self.family = family
        self.box = box
        self.params = params
        self.violation = violation
        self.entries_checked = entries_checked
        self.bracket_constraints_checked = bracket_constraints_checked

    @property
    def ok(self) -> bool:
        return self.params is not None

    def as_dict(self) -> dict:
        return {
            "check": "derive-parameters",
            "family": self.family,
            "params": {k: str(v) for k, v in self.params.items()} if self.params else None,
            "violation": self.violation,
            "entries_checked": self.entries_checked,
            "bracket_constraints_checked": self.bracket_constraints_checked,
        }

    def summary(self) -> str:
        if self.ok:
            inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
            return (
                f"derived {self.family} parameters ({inner}); "
                f"{self.entries_checked} entries and "
                f"{self.bracket_constraints_checked} bracket constraints verified on the box"
            )
        return f"table is not a {self.family} action: {self.violation}"


def _require_entry(table: ActionTable, sym: BasisSymbol) -> Polynomial:
    p = table.entries.get(sym)
    if p is None:
        raise InconsistentEntryError(f"table is missing the required entry {sym}")
    return p


def derive_parameters(table: ActionTable) -> Derivation:
    """Read the family parameters off an action table and verify the table.

    The distinguished entries determine the candidates:

    * the image of the degree generator L(1, 0...) must be linear,
      lam (t - root); its leading coefficient gives lambda and its root
      gives alpha (loop/Virasoro) or q*alpha (Block);
    * for the loop family, mu is the quotient of the L(1,1)-entry by
      (t - alpha), which must divide exactly with a constant quotient;
    * for the Block family at q = -1, beta is the constant L(1,1)-entry
      divided by lambda.

    Every remaining entry is then compared to the closed form; once all
    match, the module axioms of the derived family are checked on 1 for
    every pair of box symbols, which covers every bracket constraint
    [x, y] . 1 = x . (y . 1) - y . (x . 1) the table supports.  The first
    failure is reported as a violation.
    """
    alg = table.algebra
    if alg == LOOP:
        return _derive_loop(table)
    if alg == VIRASORO:
        return _derive_virasoro(table)
    if isinstance(alg, Block):
        return _derive_block(table)
    raise KindMismatchError(f"no rank-one family is defined over {alg.describe()}")


def _read_linear(entry: Polynomial, name: "str | BasisSymbol") -> tuple[GaussianRational, GaussianRational]:
    """lam, root with entry = lam*(t - root); entry must have degree 1.

    name (a label or the symbol itself) is formatted only into the error.
    """
    if entry.degree != 1:
        raise DegreeMismatchError(
            f"entry {name} = {entry} must have degree 1 for a rank-one free action"
        )
    lam = entry.leading
    root = -(entry.constant_term / lam)
    return lam, root


def _shift_amount(alg: Algebra, sym: BasisSymbol) -> GaussianRational:
    """How far sym shifts the argument: i for loop/Virasoro, m*q for Block.

    Central symbols act as plain multiplication by their table entry, with
    no shift.
    """
    if sym[0] == "C":
        return GaussianRational.from_int(0)
    if isinstance(alg, Block):
        return alg.q.mul_int(sym[1])
    return GaussianRational.from_int(sym[1])


def _finish(deriv: Derivation, table: ActionTable, spec: ModuleSpec) -> Derivation:
    """Cross-check all entries against the closed form (``match_template``), then the brackets.

    The bracket phase is the module-axiom sweep of the derived spec on 1
    (``analysis.module_axiom_check`` with the one test vector 1): once
    every entry equals the spec's x . 1, its identities on 1 are exactly
    the bracket constraints the table supports.
    """
    from .analysis import module_axiom_check  # analysis builds on this module

    match = match_template(table, spec)
    deriv.entries_checked = match.entries_checked
    if not match:
        sym, expected, found = match.first_mismatch, match.expected, match.found
        diff = found - expected
        if sym[0] == "L" and sym[1] == 0 and diff.degree == 0:
            # a constant offset on a zero-row entry: the one deviation the
            # recurrences forbid last, so name it the way they do
            label = f"e_{sym[2]}" if len(sym) == 3 else "e"
            deriv.violation = (
                f"entry {sym} = {found} deviates from {expected} by the constant "
                f"{diff.constant_term}: offset {label} != 0 is inconsistent with "
                f"the bracket relations"
            )
        else:
            deriv.violation = f"entry {sym} = {found} should be {expected}"
        deriv.params = None
        return deriv
    # every entry now equals the spec's x . 1, so the axioms of the spec on 1
    # cover each bracket constraint x.(y.1) - y.(x.1) = [x,y].1 of the table
    report = module_axiom_check(spec, table.box, (P_ONE,))
    deriv.bracket_constraints_checked = report.pairs_checked
    if not report.ok:
        deriv.params = None
        deriv.violation = f"bracket constraint {report.violations[0]}"
    return deriv


def _derive_loop(table: ActionTable) -> Derivation:
    deriv = Derivation("omega-loop", table.box)
    f10 = _require_entry(table, L(1, 0))
    _require_entry(table, L(-1, 0))
    f11 = _require_entry(table, L(1, 1))
    _require_entry(table, L(0, 1))
    lam, alpha = _read_linear(f10, "L(1,0)")
    quot, rem = f11.divide_linear(alpha)
    if rem or quot.degree != 0:
        deriv.violation = (
            f"entry L(1,1) = {f11} is not a constant multiple of (t - {alpha})"
        )
        return deriv
    mu = quot.constant_term
    if not mu:
        deriv.violation = "mu derived as 0, outside the allowed parameter range"
        return deriv
    deriv.params = {"lambda": lam, "mu": mu, "alpha": alpha}
    return _finish(deriv, table, OmegaLoop(lam, mu, alpha))


def _derive_virasoro(table: ActionTable) -> Derivation:
    deriv = Derivation("omega-vir", table.box)
    f1 = _require_entry(table, L(1))
    _require_entry(table, L(-1))
    lam, alpha = _read_linear(f1, "L(1)")
    deriv.params = {"lambda": lam, "alpha": alpha}
    return _finish(deriv, table, OmegaVir(lam, alpha))


def _derive_block(table: ActionTable) -> Derivation:
    alg = table.algebra
    assert isinstance(alg, Block)
    q = alg.q
    hv = q == -1
    deriv = Derivation("omega-block-hv" if hv else "omega-block", table.box)
    h10 = _require_entry(table, L(1, 0))
    _require_entry(table, L(-1, 0))
    h11 = _require_entry(table, L(1, 1))
    lam, root = _read_linear(h10, "L(1,0)")
    alpha = root / q
    if hv:
        if not h11.is_zero and h11.degree != 0:
            deriv.violation = f"entry L(1,1) = {h11} must be constant"
            return deriv
        beta = h11.constant_term / lam
        deriv.params = {"lambda": lam, "alpha": alpha, "beta": beta}
        return _finish(deriv, table, OmegaBlockHV(lam, alpha, beta))
    deriv.params = {"q": q, "lambda": lam, "alpha": alpha}
    return _finish(deriv, table, OmegaBlock(q, lam, alpha))


def strip_t(g: Polynomial) -> Polynomial:
    """Divide a multiple of t by t.

    This is the intertwiner that identifies the zero-constant-term
    submodule at alpha = 0 with the alpha = 1 module: acting and then
    stripping t equals stripping t and then acting.
    """
    if g.is_zero:
        return g
    if g._re[0] or g._im[0]:
        raise NotInSubmoduleError(
            f"{g} has nonzero constant term, so it is not a multiple of t"
        )
    return _canon(list(g._re[1:]), list(g._im[1:]), g._den)
