"""Theorem-scale verification: module axioms, simplicity probing by span
closure, submodule and composition-series checks, isomorphism
classification, tensor irreducibility probing, and center reports.

The probes work inside a finite window: a box of algebra generators and a
degree cap D on polynomial vectors.  Action images that leave the window
are discarded (never truncated), so a computed closure is always a
subspace of the true submodule intersected with the window (the window,
not the polynomial DEGREE_CAP, also bounds a probe's arithmetic).
Consequently

* ``FillsWindow`` is affirmative evidence for simplicity at that window,
  never a proof;
* ``ProperInvariantWindow`` comes in two strengths, recorded in the
  verdict: plain window evidence, or a certified invariant subspace when
  the closure is exactly the t_k-multiples slice of the window for some
  slot k and every box generator keeps all of t_k * C[t] (``_certificate``:
  one image per generator decides it).  The certificate proves that
  t_k * C[t] is invariant under the box's generators, so under the
  subalgebra they generate.  That is a proper submodule of the whole
  module only when the box generates the algebra, which nothing here
  checks: a box of L(0, j) alone keeps t * C[t] in a simple loop module.

A probe acts with the operators of ``ModuleSpec.probe_operators``, read
off the operator classes of the box generators.  Generators that share
every slot's shift and root act as lead-weighted sums of the same slot
operators, so each class needs only the generators that grow the rank of
its lead vectors, one elimination per class with no weight solved, and
generators acting as 0 are skipped.  Where the lead vectors span a slot's
unit vector, that slot operator is an exact combination of the class's
actions, and the probe applies it alone: one representative acting in
that one tensor slot, whose image of a monomial lies on the monomial's
slot line.  The class's other representatives act in the remaining slots
together (those of a repeated (lambda, mu) pair of a tensor, say), or
whole when no slot separates.  Every generator's image of a vector lies
in the span of the operators' images of it, and each operator's in the
span of the generators', so each round stages the same span and the
closure is the closure under the whole box.  For one variable every
operator is a whole generator, acting in the one slot.

A probe acts through operator columns (``_OperatorColumns``): column
(g, k, slots) is g, acting in those slots, applied to the k-th window
monomial.  One table serves all the seeds of one probe and dies with it,
holding at most |operators| * window.dim columns.  A frontier row of the
closure is nearly always a unit row (one monomial), whose image is its
column; any other row's image is the integer combination of its columns.
The certificate and ``submodule_invariance_check`` do not use the
columns: they apply box generators with ``act_basis``, so a certified
verdict rests on a computation apart from the closure's.

Seeds adopt known closures.  The window closure is monotone: if v lies in
closure(w), then closure(v) is inside closure(w).  So before seed b
closes, the probe lists the earlier seeds a whose closure holds b, and
once one of them lies in b's staged span, a is in closure(b) as well and
closure(b) = closure(a) exactly; the probe takes closure(a) as b's and
stops.  A probe that fills the window closes one seed in full, and the
others stop after a round or so.  ``ProbeVerdict.stats`` names the seeds
that adopted a closure and counts the operators.

Blocks.  When no operator acts across two groups of tensor slots (each
operator's slots lie in one block of a partition with two or more blocks,
as for distinct (lambda, mu) pairs), a seed that is one monomial and that
no earlier closure holds closes block by block: its factor in each block
closes in that block's own window, (D + 1)^|B| monomials staged in
(D + 2)^|B|, under that block's operators, and the closure is the tensor
product of the block closures.  That is exact (``_closure`` gives the
argument), with the same rows and pivots as the whole-window closure, and
no basis over the whole (D + 2)^m staging window is built.  When every
block closure fills its block window, the product is the whole window,
and the closure is the identity basis (``SpanBasis.identity``), built
with no elimination; only a proper block's product is built row by row
(``_tensor``), since its witness and certificate read those rows.  A
probe whose operators leave one block (one variable, or a repeated pair)
closes as before.

``module_axiom_check`` uses the same operator classes
(``ModuleSpec.operator_classes``) for its nested actions, and still
evaluates every (x, y, f) identity exactly.  Single actions x.f are
direct.  A class member acts as the Q(i) combination of its class's
representatives given by ``operator_classes``; an audit admits it only if
its direct x.f equals that combination of their images on every test
vector, and a member that fails becomes a representative of its own (and
every generator does, once one of its class acts on 0 as nonzero).
By bilinearity of the rank-one kernel in its entry, x.(y.f) - y.(x.f) is
then the weighted sum of the commutators g.(h.f) - h.(g.f), computed once
per pair of representatives, so each identity is one integer residual.  A
violation's message comes from the direct recomputation of its two sides.
"""

from __future__ import annotations

from bisect import bisect_left
from math import lcm
from typing import Callable, Iterable, Sequence

from .algebras import (
    Algebra,
    BasisSymbol,
    DEFAULT_BOX,
    IndexBox,
    _Frozen,
    _Record,
    _first_noncommuting,
    centrality_check,
)
from .errors import MaxRoundsExceededError, NotInSubmoduleError
from .linalg import SpanBasis, VectorWindow
from .modules import (
    ActionTable,
    Derivation,
    ModuleSpec,
    OmegaLoop,
    TensorOmega,
    derive_parameters,
    strip_t,
)
from .polynomials import P_ONE, Polynomial, T, _canon, _t_power, monomial, parse_polynomial, rank_one_rule
from .scalars import GaussianRational, I, ONE, scalar

__all__ = [
    "ProbeConfig",
    "ProbeVerdict",
    "module_axiom_check",
    "simplicity_probe",
    "submodule_invariance_check",
    "composition_series_check",
    "isomorphism_classify",
    "tensor_irreducibility_probe",
    "center_report",
    "DEFAULT_SEEDS",
    "GRID_LAMBDA_MU",
    "GRID_ALPHA",
    "GRID_BETA",
    "GRID_Q",
]

# Default parameter grid for the verification suites.  The q values hit
# every case the structure arguments branch on: q = -1/2 and q = -1 get
# special treatment, |1/q| integral behaves differently from generic q,
# and -q or -2q being a positive integer switches on the extra central
# element / the excluded symbol.
GRID_LAMBDA_MU = (scalar(1), scalar(2), scalar("1/2"), scalar(-1), I)
GRID_ALPHA = (scalar(0), scalar(1), scalar("-1/2"), scalar(2))
GRID_BETA = (scalar(0), scalar(2))
GRID_Q = (
    scalar(1),
    scalar(2),
    scalar("1/2"),
    scalar("-1/2"),
    scalar(-1),
    scalar("-3/2"),
    scalar(-3),
    scalar("3/2"),
)

# Seeds: t is always worth probing because it generates the known proper
# submodule at alpha = 0.
DEFAULT_SEEDS = (P_ONE, T, parse_polynomial("t^2+1"), parse_polynomial("t^3-t"))


class ProbeConfig(_Frozen):
    """Finite window for a closure probe: generator box, degree cap, seeds."""

    def __init__(self, box: IndexBox = IndexBox((-2, 2), (-2, 2)), max_degree: int = 4, seeds: tuple = DEFAULT_SEEDS):
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if not seeds:
            raise ValueError("need at least one seed")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "seeds", seeds)

    def as_dict(self, names: Sequence[str]) -> dict:
        return {
            "D": self.max_degree,
            "box": self.box.as_dict(names),
            "seeds": [str(s) for s in self.seeds],
        }


class ProbeVerdict(_Record):
    """Outcome of a span-closure probe.

    ``fills`` means every seed's closure reached the full window dimension.
    Otherwise ``dim`` is the smallest closure found, ``witness`` is a window
    monomial outside it, and ``certificate`` records whether the invariant
    subspace was certified ("invariant-certified") or is window-level
    evidence only ("window-evidence").  A certificate rests on the closure
    being the t_k-slice of the window and on one ``act_basis`` image per box
    generator, of t_k, that stays a t_k-multiple (see ``_certificate``).  It
    proves that the box's generators keep all of t_k * C[t]; that makes
    t_k * C[t] a proper submodule of the whole module only when the box
    generates the algebra, which is not checked.

    ``stats`` says what the closures cost: ``operators`` counts the
    operators each closure applied (``count``) and those acting in one
    tensor slot (``one_slot``), and ``adopted`` maps each seed that took an
    earlier seed's closure to that seed.
    """

    def __init__(
        self,
        check: str,
        spec: dict,
        fills: bool,
        dim: int,
        window_dim: int,
        window: dict,
        seed_dims: dict[str, int],
        witness: str | None = None,
        certificate: str | None = None,
        stats: dict | None = None,
    ):
        self.check = check
        self.spec = spec
        self.fills = fills
        self.dim = dim
        self.window_dim = window_dim
        self.window = window
        self.seed_dims = seed_dims
        self.witness = witness
        self.certificate = certificate
        self.stats = {} if stats is None else stats

    @property
    def verdict(self) -> str:
        return "FillsWindow" if self.fills else "ProperInvariantWindow"

    def as_dict(self) -> dict:
        out = {
            "check": self.check,
            "spec": self.spec,
            "verdict": self.verdict,
            "dim": self.dim,
            "window": self.window,
            "seed_dims": self.seed_dims,
        }
        if not self.fills:
            out["witness"] = self.witness
            out["certificate"] = self.certificate
        out["stats"] = self.stats
        return out

    def summary(self) -> str:
        if self.fills:
            return f"FillsWindow({self.dim}) - affirmative evidence at this window"
        kind = (
            "certified proper invariant subspace"
            if self.certificate == "invariant-certified"
            else "window-level evidence only"
        )
        return (
            f"ProperInvariantWindow({self.dim} of {self.window_dim}); "
            f"missing coset witness {self.witness}; {kind}"
        )


class _OperatorColumns:
    """One probe's operators acting on its window, one operator column at a time.

    An operator is a generator g acting in some of the spec's slots
    (``ModuleSpec._slots``: the spec itself, or the factors of a tensor
    product), or in every slot when slots is None, which is g itself.
    Column (g, k, slots) is the staging numerator map of that operator
    applied to m_k, the k-th window monomial, with its denominator.  Slot s
    sends m_k to (g . t^e)(t_s) times m_k's other factors, for e its
    exponent in slot s.  These slot images are kept per (slot, generator,
    exponent) for all operators that share them: g . 1 from the slot spec's
    ``act_basis``, once per (slot, generator), and each higher one by the
    step g . t^e = (t - s_g) * (g . t^(e-1)), one multiply by a linear
    factor where ``act_basis`` on t^e would shift t^e and then multiply.  A
    one-slot operator reads one slot image, and its column lies on m_k's
    slot line; in one variable the column is that image's own staging
    map.  The denominators matter: a Block shift m*q with q not an integer
    gives each monomial its own.

    ``block`` gives a view of the same operators on some of the slots, over
    a window in those slots' variables alone (the blocks of ``_closure``).
    A view keeps its own columns but reads and fills this table's slot
    images and steps, keyed by the slot's index in the spec, so each slot
    image is still made once across one probe's block and whole closures.
    """

    def __init__(
        self,
        spec: ModuleSpec,
        window: VectorWindow,
        slots: Sequence[int] | None = None,
        shared: tuple[dict, dict] | None = None,
    ):
        self._spec = spec
        specs = spec._slots()
        self._slots = [(s, specs[s]) for s in (range(len(specs)) if slots is None else slots)]
        self._window = window
        self._columns: dict = {}
        self._slot_images, self._steps = ({}, {}) if shared is None else shared

    def block(self, slots: tuple[int, ...], window: VectorWindow) -> "_OperatorColumns":
        """The view on slots (increasing; its slot j is slots[j]) over window, in len(slots) variables."""
        return _OperatorColumns(self._spec, window, slots, (self._slot_images, self._steps))

    def column(self, g: BasisSymbol, k: int, slots: tuple[int, ...] | None = None) -> tuple[dict, int]:
        key = (g, k, slots)
        col = self._columns.get(key)
        if col is None:
            mono = self._window.monomials[k]
            images = []
            for s in range(len(mono)) if slots is None else slots:
                images.append((s, self._slot_image(*self._slots[s], g, mono[s])))
            col = self._columns[key] = self._window.ext_column(k, images)
        return col

    def _slot_image(self, slot: int, slot_spec: ModuleSpec, g: BasisSymbol, e: int):
        """g . t^e in one slot: g . 1 by ``act_basis``, then g . t^j = (t - s_g) * (g . t^(j-1))."""
        images = self._slot_images
        j = e  # the highest exponent imaged so far, up to e
        while j and (slot, g, j) not in images:
            j -= 1
        if (slot, g, j) not in images:
            images[slot, g, 0] = slot_spec.act_basis(g, P_ONE)
        for j in range(j + 1, e + 1):
            below = images[slot, g, j - 1]
            images[slot, g, j] = below and below.apply_rank_one(self._step(slot_spec, g))
        return images[slot, g, e]

    def _step(self, slot_spec: ModuleSpec, g: BasisSymbol) -> tuple[int, ...]:
        """The ``rank_one_rule`` of the multiply by t - s_g, from the integer shift of g's rule."""
        step = self._steps.get(g)
        if step is None:
            sp, si, sq = slot_spec._rule(g)[3][:3]
            step = self._steps[g] = rank_one_rule(0, T - _canon([sp], [si], sq))
        return step

    def image(self, g: BasisSymbol, row: dict, slots: tuple[int, ...] | None = None) -> dict:
        """Staging numerator map of g (in slots; None: every slot) applied to an inside staging row, up to scale.

        A unit row (frontier rows nearly always are) takes its column; any
        other row the exact integer combination of its columns, over the
        lcm of their denominators.
        """
        off = self._window.n_outside
        if len(row) == 1:
            (k,) = row
            return self.column(g, k - off, slots)[0]
        cols = [(self.column(g, k - off, slots), x) for k, x in row.items()]
        big = lcm(*[den for (_, den), _ in cols])
        out: dict = {}
        for (col, den), (ra, rb) in cols:
            w = big // den
            ra, rb = ra * w, rb * w
            for c, (a, b) in col.items():
                x = out.get(c, (0, 0))
                out[c] = (x[0] + a * ra - b * rb, x[1] + a * rb + b * ra)
        return {c: x for c, x in out.items() if x[0] or x[1]}

    def apply(self, op: tuple, row: dict) -> dict:
        """``image`` of an operator (g, slots) of ``ModuleSpec.probe_operators``."""
        return self.image(op[0], row, op[1])


def _closure(
    seed,
    gens: Sequence,
    act: Callable[[object, dict], dict],
    window: VectorWindow,
    max_rounds: int | None = None,
    known: Sequence[tuple[dict, SpanBasis]] = (),
    blocks: Sequence[tuple[tuple[int, ...], Sequence, Callable[[object, dict], dict], VectorWindow]] = (),
) -> SpanBasis:
    """Window closure of span{seed} under the actions of gens.

    act(g, row) is the staging numerator map of g applied to an inside
    row, up to scale: a probe hands over ``_OperatorColumns.apply`` with
    the operators of ``ModuleSpec.probe_operators``, so each image is read
    off the operator columns, and no polynomial is rebuilt from a row nor
    acted on here (``_fixpoint`` runs the rounds).

    gens need only span the operators of the box generators (such as
    ``ModuleSpec.probe_operators``, or the box symbols themselves): every
    generator's image of a vector lies in the span of their images of it,
    and theirs in the span of the generators' images, so each round's
    staged span is the same.

    known lists (staging map of a, closure of a) for earlier seeds a whose
    closure holds this seed.  At the top of each round, once some such a
    lies in the staged span, a is in this seed's closure too, so the two
    closures coincide (the window closure is monotone) and closure(a) is
    returned as it is.  The closure is returned in window coordinates; its
    rows are the inside rows' tails, already reduced.  Everything here
    stays on integers, and no GaussianRational is made.

    blocks, when there are two or more, split the window's slots: one
    (slots, operators, act, window) per block, each operator acting in
    that block's slots alone (local slot numbers), act its
    ``_OperatorColumns.block`` view and window the block's own window in
    len(slots) variables, at the same degree (``_blocks``).  A seed that
    is one monomial, with no known closure, then closes block by block:
    its factor m_B in each block B closes in B's window under B's
    operators, to C_B, and the closure is the tensor product of the C_B
    (``_tensor``).  That is exact.  Write W = (x)W_B for the window and
    E = (x)E_B for the staging space, V = (x)C_B, and
    S_B = span(C_B and ops_B(C_B)) in E_B, so that S_B meets W_B in C_B
    (C_B is B's fixpoint).  An operator of block B maps V into
    S_B (x) (the other C's), so span(V and ops(V)) is the sum of those.
    Take a complement T_B of C_B in S_B; it meets W_B only in 0, so the
    projection of block B onto its outside-the-window part is injective on
    T_B (x) (the other C's), and it kills V and every other block's term
    (their block-B factor lies in C_B, inside W_B).  A vector of the sum
    that lies in W thus has no T_B part for any B: span(V and ops(V))
    meets W in V, V is a fixpoint holding the seed, and the closure lies in
    V.  Conversely each (x)c_B is reached block by block, since an operator
    of B acting on c (x) (the other factors) changes only the block-B
    factor, and the window cuts that factor alone.  So V is the closure.
    Its rows and pivots are those of the whole-window closure: RREF and the
    primitive integer form are canonical.  When every C_B is all of W_B, V
    is all of W, whose canonical form is the identity basis (pivot k, row
    {k: (1, 0)}); it is returned as such (``SpanBasis.identity``), and only
    a proper product is built by ``_tensor``.  max_rounds bounds each
    block's rounds.
    """
    vec = window.ext_vector(seed)[0]
    if len(blocks) > 1 and len(vec) == 1 and not known:
        (k,) = vec
        mono = window.monomials[k - window.n_outside]
        parts = []
        for slots, ops, block_act, block_window in blocks:
            j = block_window.monomials.index(tuple(mono[s] for s in slots))
            start = {block_window.n_outside + j: (1, 0)}
            parts.append((slots, block_window, _fixpoint(start, ops, block_act, block_window, max_rounds)))
        if all(closure.rank == block_window.dim for _, block_window, closure in parts):
            return SpanBasis.identity(window.dim)
        return _tensor(window, parts)
    return _fixpoint(vec, gens, act, window, max_rounds, known)


def _fixpoint(
    vec: dict,
    gens: Sequence,
    act: Callable[[object, dict], dict],
    window: VectorWindow,
    max_rounds: int | None,
    known: Sequence[tuple[dict, SpanBasis]] = (),
) -> SpanBasis:
    """The rounds of ``_closure``, from the staging map vec of the seed.

    One basis in the window's staging layout (``VectorWindow.ext_vector``)
    takes the seed and every image.  Its rows with an inside pivot span
    exactly its span intersected with the window, and each round acts on
    those whose pivot is new since the round before: an older inside row
    has since changed only by multiples of newer inside rows, whose images
    come in their turn.  Every vector the closure keeps is an exact
    submodule member, so a filled window never overclaims, and by
    linearity the loop reaches a true fixpoint.  SpanBasis replaces rows
    rather than changing them, so each round's frontier is a snapshot.
    """
    n_out = window.n_outside
    staged = SpanBasis(window.ext_dim)
    staged.insert(vec)
    acted: set[int] = set()
    rounds = 0
    budget = max_rounds if max_rounds is not None else window.dim + 2
    while True:
        for v, closure in known:
            if staged.contains(v):
                return closure
        first = bisect_left(staged.pivots, n_out)  # inside rows come last
        if staged.rank - first == window.dim:
            break
        frontier = [
            row
            for row, piv in zip(staged.num_rows[first:], staged.pivots[first:])
            if piv not in acted
        ]
        if not frontier:
            break
        rounds += 1
        if rounds > budget:
            raise MaxRoundsExceededError(
                f"closure did not stabilize within {budget} rounds"
            )
        acted.update(staged.pivots[first:])
        for row in frontier:
            for g in gens:
                image = act(g, row)
                if image:
                    staged.insert(image)
    closure = SpanBasis(window.dim)
    for row in staged.num_rows[first:]:
        closure.insert({k - n_out: pair for k, pair in row.items()})
    return closure


def _tensor(window: VectorWindow, parts: Sequence[tuple[tuple[int, ...], VectorWindow, SpanBasis]]) -> SpanBasis:
    """The tensor product of block closures (slots, block window, closure), as a SpanBasis over window.

    ``_closure`` calls it only when some block closure is proper (a filled
    product is the identity basis).  The product of one row from each
    block is already reduced.  Window monomials run in degree-lex order, a
    monomial order in which every block's own order is the restriction,
    so the least monomial of a product row is the product of the rows'
    pivots; and no other product row holds it, since each pivot column is
    zero in its block's other rows.  Inserted in descending pivot order, no row meets an earlier
    pivot, so ``insert`` only makes each row primitive (a product of
    primitive rows can share a rational factor, as (1+i)^2 = 2i does).
    """
    at = {e: k for k, e in enumerate(window.monomials)}
    zero = (0,) * window.nvars
    rows: list[dict] = [{zero: (1, 0)}]
    for slots, block_window, closure in parts:
        lifted = []
        for e in block_window.monomials:
            full = list(zero)
            for s, x in zip(slots, e):
                full[s] = x
            lifted.append(full)
        rows = [
            {
                tuple(x + y for x, y in zip(e, lifted[j])): (a * c - b * d, a * d + b * c)
                for e, (a, b) in row.items()
                for j, (c, d) in block_row.items()
            }
            for row in rows
            for block_row in closure.num_rows
        ]
    product = [{at[e]: x for e, x in row.items()} for row in rows]
    basis = SpanBasis(window.dim)
    for row in sorted(product, key=min, reverse=True):
        basis.insert(row)
    return basis


def _blocks(ops: Sequence, columns: _OperatorColumns, window: VectorWindow) -> list:
    """The blocks of ``_closure`` for a probe's operators, or [] when the slots form one block.

    The blocks are the finest partition of the slots in which each
    operator's slots lie in one block; slots None joins every slot.
    """
    parts = [{s} for s in range(window.nvars)]
    for _, slots in ops:
        joined = set(range(window.nvars) if slots is None else slots)
        parts = [p for p in parts if not p & joined] + [set().union(*[p for p in parts if p & joined])]
    if len(parts) == 1:
        return []
    out = []
    for slots in sorted(tuple(sorted(p)) for p in parts):
        local = {s: j for j, s in enumerate(slots)}
        block_window = VectorWindow(window.max_degree, len(slots))
        block_ops = [(g, tuple(local[s] for s in op_slots)) for g, op_slots in ops if op_slots[0] in local]
        out.append((slots, block_ops, columns.block(slots, block_window).apply, block_window))
    return out


def _escapes(image, k: int) -> bool:
    """Does image leave the t_k-multiples (for one variable: have a constant term)?"""
    if isinstance(image, Polynomial):
        return bool(image.constant_term)
    return any(e[k] == 0 for e in image.exponents())


def _sweep(spec: ModuleSpec, box: IndexBox, vectors: Sequence, k: int = 0):
    """Apply every box generator to every vector until an image leaves the t_k-multiples.

    Returns the number of images computed and the first escape as
    (generator, vector, image), or None when every image stays inside.
    """
    checked = 0
    for g in spec.algebra.symbols_in_box(box):
        for f in vectors:
            image = spec.act_basis(g, f)
            checked += 1
            if _escapes(image, k):
                return checked, (g, f, image)
    return checked, None


def _certificate(spec: ModuleSpec, box: IndexBox, window: VectorWindow, closure: SpanBasis) -> str:
    """Certify a proper closure as the t_k-multiples slice of the window, for some slot k.

    For one variable the slot-0 slice is the zero-constant-term slice.  The
    closure must be exactly that slice, and each box generator, applied
    once to t_k with ``act_basis`` (not through the operator columns), must
    keep t_k a t_k-multiple.  That covers all of t_k * C[t]: by the
    rank-one (Leibniz) rule, x . (t_k f) = f(t - s_x e_k) * (t_k - s_x) * x_k
    plus the other slots' terms, which keep their t_k factor (x_k is x . 1
    in slot k), and the first term is a t_k-multiple for every f exactly
    when x . t_k is one.  So multiplication by t_k maps the module whose
    x . 1 is (x . t_k)/t_k onto t_k * C[t], and the certificate holds on
    all of t_k * C[t], not only on the window.
    """
    monos = window.monomials
    for k in range(window.nvars):
        outside = {idx for idx, e in enumerate(monos) if not e[k]}
        if closure.rank != window.dim - len(outside):
            continue
        if any(not outside.isdisjoint(row) for row in closure.num_rows):
            continue
        t_k = window.monomial(monos.index(tuple(int(j == k) for j in range(window.nvars))))
        if _sweep(spec, box, [t_k], k)[1] is None:
            return "invariant-certified"
    return "window-evidence"


def _prepare_seed(seed, window: VectorWindow, spec: ModuleSpec):
    """Parse, pad, and validate one probe seed against the module and window."""
    if isinstance(seed, str):
        seed = parse_polynomial(seed)
    seed = spec.vector(seed)
    if not seed:
        raise ValueError("probe seeds must be nonzero")
    window.vector_of(seed)  # DegreeOverflowError when a seed exceeds the window
    return seed


def simplicity_probe(spec: ModuleSpec, cfg: ProbeConfig = ProbeConfig()) -> ProbeVerdict:
    """Probe a rank-one family for proper invariant subspaces in a window.

    Each seed's span is closed under the generators in the box (acting
    with a spanning subset of them, which gives the same closure), keeping
    only images inside the degree window.  FillsWindow requires every seed
    to reach the full window dimension; otherwise the smallest closure is
    reported with a missing-coset witness.
    """
    if isinstance(spec, TensorOmega):
        return tensor_irreducibility_probe(spec, cfg)
    return _probe(spec, cfg, "simplicity")


def tensor_irreducibility_probe(
    spec: "TensorOmega | Sequence", cfg: ProbeConfig = ProbeConfig(max_degree=3, seeds=("1",))
) -> ProbeVerdict:
    """Span-closure probe for tensor products of loop factors.

    The window caps every variable's degree at cfg.max_degree.  A full
    closure is affirmative evidence only; a proper closure equal to the
    t_k-multiples slice of the window is certified as in the single-factor
    probe, by each box generator applied once to t_k (``_certificate``).

    Where the operators separate the slots into blocks (distinct
    (lambda, mu) pairs separate every slot; a repeated pair keeps its
    slots in one block), a monomial seed that no earlier closure holds
    closes in each block's own window, and its closure is the tensor
    product of the block closures (see the module docstring), or the
    identity basis when every block fills; the verdict is the same as the
    whole-window closure's.

    Any number of factors is accepted.  What bounds the request is the
    window: (D + 1)^m monomials for m factors, at most
    ``polynomials.WINDOW_CAP`` (2^16), or ``VectorWindow`` raises
    ``WindowBudgetError`` before it lists a monomial.  A separated probe
    costs little per factor; one whose slots do not separate (too few
    second indices in the box, or equal mu/lambda) closes the whole window.
    """
    if not isinstance(spec, TensorOmega):
        spec = TensorOmega(list(spec))
    return _probe(spec, cfg, "tensor-irreducibility")


def _probe(spec: ModuleSpec, cfg: ProbeConfig, check: str) -> ProbeVerdict:
    """The probe body shared by both public probes.

    ``_blocks`` reads the partition of the slots off the operators once,
    and every seed's ``_closure`` gets it.  Seeds close in order.  Before
    seed b closes, the earlier seeds a whose closure holds b are listed for
    ``_closure``, which returns closure(a) once one of them lies in b's
    staged span.
    """
    window = VectorWindow(cfg.max_degree, spec.nvars)
    n_out = window.n_outside
    ops = spec.probe_operators(spec.algebra.symbols_in_box(cfg.box))
    columns = _OperatorColumns(spec, window)
    act = columns.apply
    blocks = _blocks(ops, columns, window)
    seed_dims: dict[str, int] = {}
    closed: list[tuple[str, dict, SpanBasis]] = []  # (seed, staging map, closure) per seed so far
    adopted: dict[str, str] = {}
    worst: SpanBasis | None = None
    for seed in cfg.seeds:
        seed = _prepare_seed(seed, window, spec)
        vec = window.ext_vector(seed)[0]
        inside = {k - n_out: x for k, x in vec.items()}
        known = [(v, basis) for _, v, basis in closed if basis.contains(inside)]
        basis = _closure(seed, ops, act, window, known=known, blocks=blocks)
        name = str(seed)
        seed_dims[name] = basis.rank
        owner = next((a for a, _, b in closed if b is basis), None)
        if owner is not None:
            adopted[name] = owner
        closed.append((name, vec, basis))
        if worst is None or basis.rank < worst.rank:
            worst = basis
    assert worst is not None
    fills = worst.rank == window.dim
    one_slot = sum(1 for _, slots in ops if slots is not None and len(slots) == 1)
    verdict = ProbeVerdict(
        check=check,
        spec=spec.as_dict(),
        fills=fills,
        dim=worst.rank,
        window_dim=window.dim,
        window=cfg.as_dict(spec.algebra.index_names),
        seed_dims=seed_dims,
        stats={"operators": {"count": len(ops), "one_slot": one_slot}, "adopted": adopted},
    )
    if not fills:
        verdict.witness = str(window.missing_monomial(worst))
        verdict.certificate = _certificate(spec, cfg.box, window, worst)
    return verdict


# ---------------------------------------------------------------------------
# Module axioms
# ---------------------------------------------------------------------------


class AxiomReport(_Record):
    """Outcome of ``module_axiom_check``.

    ``representatives`` counts the symbols that acted through their own
    operator (box-symbol class representatives, plus any symbol the audit
    demoted), and ``applications`` the ``act_basis`` calls the sweep made.
    """

    def __init__(
        self,
        spec: dict,
        box: IndexBox,
        index_names: tuple[str, ...],
        pairs_checked: int = 0,
        identities_checked: int = 0,
        violations: list[str] | None = None,
        representatives: int = 0,
        applications: int = 0,
    ):
        self.spec = spec
        self.box = box
        self.index_names = index_names
        self.pairs_checked = pairs_checked
        self.identities_checked = identities_checked
        self.violations = [] if violations is None else violations
        self.representatives = representatives
        self.applications = applications

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "check": "module-axioms",
            "spec": self.spec,
            "box": self.box.as_dict(self.index_names),
            "pairs_checked": self.pairs_checked,
            "identities_checked": self.identities_checked,
            "violations": self.violations,
            "ok": self.ok,
            "representatives": self.representatives,
            "applications": self.applications,
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)})"
        return (
            f"module axioms for {self.spec}: {self.pairs_checked} pairs x "
            f"{self.identities_checked // max(self.pairs_checked, 1)} vectors -> {status}"
        )


def _stacked(images: Sequence) -> tuple[dict, int]:
    """The images of the test vectors as one integer vector over their common denominator.

    Entry (k, monomial) holds the numerators (re, im) of that monomial's
    coefficient in the k-th image.
    """
    den = lcm(*[p._den for p in images])
    out: dict = {}
    for k, p in enumerate(images):
        m = den // p._den
        if isinstance(p, Polynomial):
            for e, (a, b) in enumerate(zip(p._re, p._im)):
                if a or b:
                    out[k, e] = (a * m, b * m)
        else:
            for e, (a, b) in p._num.items():
                out[k, e] = (a * m, b * m)
    return out, den


def _failing(terms: Sequence[tuple[int, int, int, tuple[dict, int]]]) -> list[int]:
    """The test vectors k at which the sum of c * v over terms is not zero.

    A term (ca, cb, cd, v) is the scalar c = (ca + cb*i)/cd, cd > 0, and a
    stacked vector v.  One integer pass over the lcm of the terms'
    denominators; no polynomial is built.  Entry (k, monomial) of the sum
    is a positive integer multiple of the k-th residual's coefficient, so
    the sum vanishes at k exactly when the k-th residual does.
    """
    big = lcm(*[cd * den for _, _, cd, (_, den) in terms])
    acc: dict = {}
    get = acc.get
    for ca, cb, cd, (num, den) in terms:
        m = big // (cd * den)
        ca, cb = ca * m, cb * m
        for key, (a, b) in num.items():
            x = get(key)
            if x is None:
                acc[key] = (a * ca - b * cb, a * cb + b * ca)
            else:
                acc[key] = (x[0] + a * ca - b * cb, x[1] + a * cb + b * ca)
    return sorted({k for (k, _), (a, b) in acc.items() if a or b})


def module_axiom_check(
    spec: ModuleSpec,
    box: IndexBox = IndexBox((-2, 2), (-2, 2)),
    polys: Iterable | None = None,
) -> AxiomReport:
    """Verify [x,y].f = x.(y.f) - y.(x.f) for all box pairs and test vectors.

    Every (x, y, f) identity is evaluated exactly, through the operator
    classes of the box (``ModuleSpec.operator_classes``):

    * Single actions are direct: x.f = ``act_basis(x, f)`` for every box
      symbol, every bracket symbol reached and every test vector.
    * Audit.  A class member x acts as sum_g w_g * g over its class's
      representatives g (weights w_g from ``operator_classes``).  It joins that
      combination only if its direct x.f equals sum_g w_g * g.f exactly
      for every test vector; otherwise it becomes a representative of its
      own, acting through ``act_basis``.  A broken ``act_basis`` on one
      symbol is thus still applied directly.
    * Linearity.  The argument needs ``act_basis`` linear in f, as a module
      action is.  Every representative, including the demoted members, is
      applied to 0; if one gives a nonzero image, every box symbol acts
      through its own operator, and the residuals compare every nested
      action, as a direct sweep does.
    * Bilinearity.  The rank-one kernel is linear in its entry, so with
      x = sum_g w_(x,g) g and y = sum_h w_(y,h) h,
      x.(y.f) - y.(x.f) = sum w_(x,g) w_(y,h) K(g, h, f), where
      K(g, h, f) = g.(h.f) - h.(g.f) is computed once per unordered pair
      of distinct representatives and test vector, with ``act_basis``.
      Each identity is then one exact integer residual over a common
      denominator: that sum minus sum_z c_z z.f, for [x,y] = sum_z c_z z.
    * Messages.  Only a nonzero residual is reported, and its message is
      built by the direct recomputation (x.(y.f) - y.(x.f) against
      [x,y].f, as polynomials); if that recomputation finds no violation,
      the two paths disagree and a RuntimeError is raised.
    """
    if polys is None:
        polys = DEFAULT_SEEDS
    vectors = [spec.vector(parse_polynomial(f) if isinstance(f, str) else f) for f in polys]
    if not vectors:
        raise ValueError("need at least one test vector")
    syms = spec.algebra.symbols_in_box(box)
    report = AxiomReport(spec.as_dict(), box, spec.algebra.index_names)
    nv = len(vectors)
    act = spec.act_basis
    images: dict[BasisSymbol, list] = {}  # s -> [s.f for each test vector]
    stacks: dict[BasisSymbol, tuple] = {}  # the same images, ``_stacked``

    def image(s: BasisSymbol) -> None:
        if s not in images:
            row = images[s] = [act(s, f) for f in vectors]
            stacks[s] = _stacked(row)
            report.applications += nv

    # representatives act through their own operator; every box symbol is a
    # combination [(representative index, (a, b, d))] of them, with weight (a + b*i)/d
    reps: list[BasisSymbol] = []
    comb: dict[BasisSymbol, list[tuple[int, tuple[int, int, int]]]] = {}

    def own(s: BasisSymbol) -> None:
        comb[s] = [(len(reps), (1, 0, 1))]
        reps.append(s)

    for cls_reps, members in spec.operator_classes(syms):
        for g in cls_reps:
            own(g)
            image(g)
        for x, w in members:
            image(x)
            w = [(comb[g][0][0], (c.a, c.b, c.d)) for g, c in w]
            if _failing([(*c, stacks[reps[g]]) for g, c in w] + [(-1, 0, 1, stacks[x])]):
                own(x)
            else:
                comb[x] = w
    zero = vectors[0].scale(0)
    report.applications += len(reps)
    if any([act(s, zero) for s in reps]):  # not linear: no symbol acts through a combination
        reps.clear()
        for s in syms:
            own(s)
    report.representatives = len(reps)

    nested: dict[tuple[int, int], tuple] = {}  # (g, h), g < h -> K(g, h, f) for every f, stacked
    for b, g in enumerate(reps):
        for c in range(b + 1, len(reps)):
            h = reps[c]
            gf, hf = images[g], images[h]
            nested[b, c] = _stacked([act(g, hf[k]) - act(h, gf[k]) for k in range(nv)])
            report.applications += 2 * nv

    bp = spec.algebra.bracket_pairs
    for a, x in enumerate(syms):
        cx = comb[x]
        for y in syms[a + 1:]:
            pairs = bp(x, y)
            report.pairs_checked += 1
            report.identities_checked += nv
            # the zero images (central symbols, commuting representatives) drop out
            sides = []
            for g, (ua, ub, ud) in cx:
                for h, (va, vb, vd) in comb[y]:
                    if g != h:
                        sign, comm = (1, nested[g, h]) if g < h else (-1, nested[h, g])
                        if comm[0]:
                            sides.append((sign * (ua * va - ub * vb), sign * (ua * vb + ub * va), ud * vd, comm))
            for s, c in pairs:
                image(s)
                if stacks[s][0]:
                    sides.append((-c.a, -c.b, c.d, stacks[s]))
            for k in _failing(sides):
                report.violations.append(_axiom_violation(spec, x, y, k, vectors, pairs, images, report))
    return report


def _axiom_violation(spec, x, y, k, vectors, pairs, images, report) -> str:
    """The message for a failed identity, from the direct recomputation."""
    act = spec.act_basis
    rhs = act(x, images[y][k]) - act(y, images[x][k])
    report.applications += 2
    lhs = None
    for s, c in pairs:
        term = images[s][k] * c
        lhs = term if lhs is None else lhs + term
    if lhs is None:
        if rhs:
            return f"[{x},{y}].{vectors[k]} = 0 but commutator gives {rhs}"
    elif lhs != rhs:
        return f"[{x},{y}].{vectors[k]}: bracket action {lhs} != commutator {rhs}"
    raise RuntimeError(
        f"internal error: the class-representative residual of [{x},{y}].{vectors[k]} "
        "is nonzero, but the direct recomputation finds no violation"
    )


# ---------------------------------------------------------------------------
# Submodule and composition series checks
# ---------------------------------------------------------------------------


class InvarianceReport(_Record):
    def __init__(
        self,
        spec: dict,
        box: IndexBox,
        index_names: tuple[str, ...],
        invariant: bool,
        checked: int,
        witness: str | None = None,
    ):
        self.spec = spec
        self.box = box
        self.index_names = index_names
        self.invariant = invariant
        self.checked = checked
        self.witness = witness

    @property
    def ok(self) -> bool:
        return self.invariant

    def as_dict(self) -> dict:
        return {
            "check": "submodule-invariance",
            "spec": self.spec,
            "box": self.box.as_dict(self.index_names),
            "subspace": "zero constant term",
            "invariant": self.invariant,
            "checked": self.checked,
            "witness": self.witness,
        }

    def summary(self) -> str:
        if self.invariant:
            return f"t-multiples invariant under {self.spec} on the box ({self.checked} images)"
        return f"t-multiples NOT invariant: {self.witness}"


def submodule_invariance_check(
    spec: ModuleSpec,
    box: IndexBox = IndexBox((-2, 2), (-2, 2)),
    polys: Iterable | None = None,
) -> InvarianceReport:
    """Does every box generator keep the zero-constant-term subspace?

    Accepts any family and reports whether invariance holds (it does
    exactly when alpha = 0, and the report's witness shows the escape
    otherwise).
    """
    if polys is None:
        polys = tuple(monomial(k) for k in range(1, 5))
    vectors = []
    for f in polys:
        if isinstance(f, str):
            f = parse_polynomial(f)
        if f.constant_term:
            raise ValueError(f"test vector {f} is not in the zero-constant-term subspace")
        vectors.append(f)
    if not vectors:
        raise ValueError("need at least one test vector")
    checked, escape = _sweep(spec, box, vectors)
    report = InvarianceReport(
        spec.as_dict(), box, spec.algebra.index_names, escape is None, checked
    )
    if escape is not None:
        report.witness = _escape_witness(*escape)
    return report


def _escape_witness(g: BasisSymbol, f: Polynomial, image: Polynomial) -> str:
    return f"{g} . ({f}) = {image} has constant term {image.constant_term}"


class CompositionReport(_Record):
    """Three exact facts about the alpha = 0 loop module on a window:

    (a) the zero-constant-term subspace is invariant;
    (b) the quotient by it is trivial: every non-central generator sends 1
        into the subspace, and central generators act as zero;
    (c) stripping t intertwines the subspace with the alpha = 1 module.
    """

    def __init__(
        self,
        lam: GaussianRational,
        mu: GaussianRational,
        box: IndexBox,
        max_degree: int,
        invariance_ok: bool,
        trivial_quotient_ok: bool,
        intertwiner_ok: bool,
        detail: list[str] | None = None,
    ):
        self.lam = lam
        self.mu = mu
        self.box = box
        self.max_degree = max_degree
        self.invariance_ok = invariance_ok
        self.trivial_quotient_ok = trivial_quotient_ok
        self.intertwiner_ok = intertwiner_ok
        self.detail = [] if detail is None else detail

    @property
    def ok(self) -> bool:
        return self.invariance_ok and self.trivial_quotient_ok and self.intertwiner_ok

    def as_dict(self) -> dict:
        return {
            "check": "composition-series",
            "lambda": str(self.lam),
            "mu": str(self.mu),
            "box": self.box.as_dict(("i", "j")),
            "D": self.max_degree,
            "invariance": self.invariance_ok,
            "trivial_quotient": self.trivial_quotient_ok,
            "intertwiner": self.intertwiner_ok,
            "detail": self.detail,
            "ok": self.ok,
        }

    def summary(self) -> str:
        bits = [
            f"invariance={'PASS' if self.invariance_ok else 'FAIL'}",
            f"trivial-quotient={'PASS' if self.trivial_quotient_ok else 'FAIL'}",
            f"intertwiner={'PASS' if self.intertwiner_ok else 'FAIL'}",
        ]
        return f"composition series at lambda={self.lam}, mu={self.mu}: " + ", ".join(bits)


def composition_series_check(
    lam, mu, box: IndexBox = IndexBox((-2, 2), (-2, 2)), max_degree: int = 4
) -> CompositionReport:
    """Verify the full submodule chain picture for the alpha = 0 loop module.

    One pass over the box: each generator acts on 1 for the quotient fact
    (b), then on t, .., t^max_degree, where a failed strip of t is the
    escape that breaks (a) and (c) at once.  ``detail`` lists the first
    escape, then the quotient failures, then the intertwiner failures.
    max_degree must be >= 1: with no t^k, (a) and (c) would pass vacuously.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    lam, mu = scalar(lam), scalar(mu)
    spec0 = OmegaLoop(lam, mu, 0)
    spec1 = OmegaLoop(lam, mu, 1)
    # t, .., t^D: max_degree, not DEGREE_CAP, bounds them
    t_powers = [_t_power(k) for k in range(1, max_degree + 1)]
    escape: str | None = None
    quotient: list[str] = []
    intertwiner: list[str] = []
    for g in spec0.algebra.symbols_in_box(box):
        # (b) L-generators send 1 into the subspace, central generators act as zero
        image = spec0.act_basis(g, P_ONE)
        if g[0] == "C":
            if image:
                quotient.append(f"central {g} acts as {image} on 1")
        elif image.constant_term:
            quotient.append(f"{g} . 1 = {image} escapes the subspace")
        # (a) and (c): strip_t(g . v) = g . strip_t(v) across the two modules
        for vec in t_powers:
            lhs = spec0.act_basis(g, vec)
            rhs = spec1.act_basis(g, strip_t(vec))
            try:
                lhs_stripped = strip_t(lhs)
            except NotInSubmoduleError:
                escape = escape or _escape_witness(g, vec, lhs)
                intertwiner.append(f"{g} . {vec} = {lhs} left the submodule")
                continue
            if lhs_stripped != rhs:
                intertwiner.append(
                    f"strip({g} . {vec}) = {lhs_stripped} != {rhs} = {g} . strip({vec})"
                )
    detail = ([escape] if escape else []) + quotient + intertwiner
    return CompositionReport(
        lam, mu, box, max_degree, escape is None, not quotient, not intertwiner, detail
    )


# ---------------------------------------------------------------------------
# Isomorphism classification
# ---------------------------------------------------------------------------


class ClassifyResult(_Record):
    def __init__(
        self,
        isomorphic: bool,
        params: dict[str, GaussianRational] | None = None,
        differing: str | None = None,
        reason: str | None = None,
        derivation_a: Derivation | None = None,
        derivation_b: Derivation | None = None,
    ):
        self.isomorphic = isomorphic
        self.params = params
        self.differing = differing
        self.reason = reason
        self.derivation_a = derivation_a
        self.derivation_b = derivation_b

    def as_dict(self) -> dict:
        return {
            "check": "isomorphism",
            "verdict": "Isomorphic" if self.isomorphic else "Distinct",
            "params": {k: str(v) for k, v in self.params.items()} if self.params else None,
            "differing": self.differing,
            "reason": self.reason,
        }

    def summary(self) -> str:
        if self.isomorphic:
            inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
            return f"Isomorphic({inner})"
        return f"Distinct: {self.reason}"


def isomorphism_classify(table_a: ActionTable, table_b: ActionTable) -> ClassifyResult:
    """Two tables present isomorphic modules iff they derive equal parameters."""
    if table_a.algebra != table_b.algebra:
        return ClassifyResult(
            False,
            reason=(
                f"different algebras: {table_a.algebra.describe()} vs "
                f"{table_b.algebra.describe()}"
            ),
        )
    da = derive_parameters(table_a)
    db = derive_parameters(table_b)
    if not da.ok:
        return ClassifyResult(False, reason=f"first table: {da.violation}", derivation_a=da)
    if not db.ok:
        return ClassifyResult(False, reason=f"second table: {db.violation}", derivation_b=db)
    assert da.params is not None and db.params is not None
    for key in da.params:
        if da.params[key] != db.params.get(key):
            return ClassifyResult(
                False,
                differing=key,
                reason=f"{key}: {da.params[key]} != {db.params.get(key)}",
                derivation_a=da,
                derivation_b=db,
            )
    return ClassifyResult(True, params=dict(da.params), derivation_a=da, derivation_b=db)


# ---------------------------------------------------------------------------
# Center report
# ---------------------------------------------------------------------------


class CenterReport(_Record):
    def __init__(
        self,
        algebra: Algebra,
        box: IndexBox,
        declared: list[tuple[str, bool, str | None]] | None = None,
        extra_commuting: list[str] | None = None,
    ):
        self.algebra = algebra
        self.box = box
        self.declared = [] if declared is None else declared
        self.extra_commuting = [] if extra_commuting is None else extra_commuting

    @property
    def ok(self) -> bool:
        return all(central for _, central, _ in self.declared)

    def as_dict(self) -> dict:
        return {
            "check": "center",
            **self.algebra.as_dict(),
            "box": self.box.as_dict(self.algebra.index_names),
            "declared": [
                {"element": name, "central": central, "witness": witness}
                for name, central, witness in self.declared
            ],
            "extra_commuting_in_box": self.extra_commuting,
            "ok": self.ok,
        }

    def summary(self) -> str:
        lines = []
        for name, central, witness in self.declared:
            lines.append(f"{name}: {'central' if central else f'NOT central ({witness})'}")
        if self.extra_commuting:
            lines.append(
                "box-commuting but not declared central (window artifacts): "
                + ", ".join(self.extra_commuting)
            )
        return f"center of {self.algebra.describe()}: " + "; ".join(lines)


def center_report(algebra: Algebra, box: IndexBox = DEFAULT_BOX) -> CenterReport:
    """Check the declared central generators and scan for box-commuting symbols.

    Symbols that commute with everything in the box without being declared
    central are reported separately: at a finite box that is evidence, not
    membership in the center.

    Each declared element goes through ``centrality_check``, whose witness
    the report carries.  The scan lists the box symbols once and decides
    every other candidate c by the scan behind ``centrality_check``
    (``algebras._first_noncommuting``): c commutes with the box when, for
    each box symbol x, the coefficients of ``bracket_pairs(c, x)`` sum to
    zero on every result symbol.  It stops at the first nonzero sum, and
    no element or witness is built.
    """
    report = CenterReport(algebra, box)
    declared = algebra.declared_central(box)
    for sym in declared:
        res = centrality_check(algebra, sym, box)
        report.declared.append((str(sym), res.central, res.witness))
    syms = algebra.symbols_in_box(box)
    for cand in syms:
        if cand not in declared and _first_noncommuting(algebra, {cand: ONE}, syms) is None:
            report.extra_commuting.append(str(cand))
    return report
