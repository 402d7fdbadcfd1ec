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
  the closure is exactly the zero-constant-term slice of the window and an
  independent invariance sweep confirms that every generator in the box
  preserves that slice.  The certified case is a genuine witness of
  non-simplicity.

A probe acts with a spanning subset of the box generators
(``ModuleSpec.spanning_symbols``): generators that share every slot's
shift and root act as lead-weighted sums of the same slot operators, so
only those with independent lead vectors are applied, and generators
acting as 0 are skipped.  Every other generator's image of a vector lies
in the span of the applied generators' images of it, so the closure is
the closure under the whole box.  The certificate sweep and
``submodule_invariance_check`` still apply every box generator, as an
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .algebras import (
    Algebra,
    BasisSymbol,
    DEFAULT_BOX,
    IndexBox,
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
from .polynomials import P_ONE, Polynomial, T, monomial, parse_polynomial
from .scalars import GaussianRational, I, ONE, ZERO, scalar

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


@dataclass(frozen=True)
class ProbeConfig:
    """Finite window for a closure probe: generator box, degree cap, seeds."""

    box: IndexBox = IndexBox((-2, 2), (-2, 2))
    max_degree: int = 4
    seeds: tuple = DEFAULT_SEEDS
    max_rounds: int | None = None

    def __post_init__(self):
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if not self.seeds:
            raise ValueError("need at least one seed")

    def as_dict(self, names: Sequence[str]) -> dict:
        return {
            "D": self.max_degree,
            "box": self.box.as_dict(names),
            "seeds": [str(s) for s in self.seeds],
        }


@dataclass
class ProbeVerdict:
    """Outcome of a span-closure probe.

    ``fills`` means every seed's closure reached the full window dimension.
    Otherwise ``dim`` is the smallest closure found, ``witness`` is a window
    monomial outside it, and ``certificate`` records whether the invariant
    subspace was independently certified ("invariant-certified") or is
    window-level evidence only ("window-evidence").
    """

    check: str
    spec: dict
    fills: bool
    dim: int
    window_dim: int
    window: dict
    seed_dims: dict[str, int]
    witness: str | None = None
    certificate: str | None = None

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


def _closure(
    seed,
    gens: Sequence[BasisSymbol],
    act: Callable[[BasisSymbol, object], object],
    window: VectorWindow,
    max_rounds: int | None,
) -> SpanBasis:
    """Window closure of span{seed} under the actions of gens.

    Images are staged in the window's one-degree-larger staging layout
    (``VectorWindow.ext_vector``); after each round the part of their
    cumulative span that lies inside the window is folded into the
    closure, and genuinely new directions feed the next round.  Every
    vector the closure keeps is an exact submodule member, so a filled
    window never overclaims.  Because the action is linear, images of the
    recorded spanning vectors generate the images of the whole closure,
    so the loop reaches a true fixpoint.

    gens need only span the operators of the box generators (see
    ``ModuleSpec.spanning_symbols``): every other generator's image of a
    vector lies in the span of their images of it, so each round's staged
    span is the same.  Only staged rows whose pivot is new in a round are
    folded: an older inside-window row was folded before and has since
    changed only by multiples of newer inside-window rows (elimination
    clears a new pivot column, whose pivot lies after the old row's), so
    the folded span is the same as folding every row.
    """
    main = SpanBasis(window.dim)
    main.insert(window.vector_of(seed))
    staged = SpanBasis(window.ext_dim)
    frontier = [seed]
    rounds = 0
    budget = max_rounds if max_rounds is not None else window.dim + 2
    while frontier and main.rank < window.dim:
        rounds += 1
        if rounds > budget:
            raise MaxRoundsExceededError(
                f"closure did not stabilize within {budget} rounds"
            )
        folded = set(staged.pivots)
        for f in frontier:
            for g in gens:
                image = act(g, f)
                if image:
                    staged.insert(window.ext_vector(image))
        frontier = []
        for row, piv in zip(staged.rows, staged.pivots):
            if piv < window.n_outside or piv in folded:
                continue  # reaches outside the window, or folded in an earlier round
            tail = row[window.n_outside:]
            if main.insert(tail):
                frontier.append(window.window_poly(tail))
                if main.rank == window.dim:
                    break
    return main


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
    closure must be exactly that slice, and an independent sweep must show
    that every box generator keeps the slice: exact, but finite, so it
    certifies invariance for the box generators on the window.
    """
    monos = window.monomials
    for k in range(window.nvars):
        outside = [idx for idx, e in enumerate(monos) if not e[k]]
        if closure.rank != window.dim - len(outside):
            continue
        if any(row[idx] for row in closure.rows for idx in outside):
            continue
        slice_basis = [window.monomial(idx) for idx, e in enumerate(monos) if e[k]]
        if _sweep(spec, box, slice_basis, k)[1] is None:
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
    closure is affirmative evidence only; a proper closure matching a
    zero-constant-term slice in one tensor slot is certified the same way
    as in the single-factor probe.
    """
    if not isinstance(spec, TensorOmega):
        spec = TensorOmega(list(spec))
    if spec.nvars > 3:
        raise ValueError("tensor probes support at most 3 factors at desk scale")
    return _probe(spec, cfg, "tensor-irreducibility")


def _probe(spec: ModuleSpec, cfg: ProbeConfig, check: str) -> ProbeVerdict:
    """The probe body shared by both public probes."""
    window = VectorWindow(cfg.max_degree, spec.nvars)
    gens = spec.spanning_symbols(spec.algebra.symbols_in_box(cfg.box))
    seed_dims: dict[str, int] = {}
    worst: SpanBasis | None = None
    for seed in cfg.seeds:
        seed = _prepare_seed(seed, window, spec)
        basis = _closure(seed, gens, spec.act_basis, window, cfg.max_rounds)
        seed_dims[str(seed)] = basis.rank
        if worst is None or basis.rank < worst.rank:
            worst = basis
    assert worst is not None
    fills = worst.rank == window.dim
    verdict = ProbeVerdict(
        check=check,
        spec=spec.as_dict(),
        fills=fills,
        dim=worst.rank,
        window_dim=window.dim,
        window=cfg.as_dict(spec.algebra.index_names),
        seed_dims=seed_dims,
    )
    if not fills:
        verdict.witness = str(window.missing_monomial(worst))
        verdict.certificate = _certificate(spec, cfg.box, window, worst)
    return verdict


# ---------------------------------------------------------------------------
# Module axioms
# ---------------------------------------------------------------------------


@dataclass
class AxiomReport:
    spec: dict
    box: IndexBox
    index_names: tuple[str, ...]
    pairs_checked: int = 0
    identities_checked: int = 0
    violations: list[str] = field(default_factory=list)

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
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)})"
        return (
            f"module axioms for {self.spec}: {self.pairs_checked} pairs x "
            f"{self.identities_checked // max(self.pairs_checked, 1)} vectors -> {status}"
        )


def module_axiom_check(
    spec: ModuleSpec,
    box: IndexBox = IndexBox((-2, 2), (-2, 2)),
    polys: Iterable | None = None,
) -> AxiomReport:
    """Verify [x,y].f = x.(y.f) - y.(x.f) for all box pairs and test vectors."""
    if polys is None:
        polys = DEFAULT_SEEDS
    vectors = [spec.vector(parse_polynomial(f) if isinstance(f, str) else f) for f in polys]
    if not vectors:
        raise ValueError("need at least one test vector")
    syms = spec.algebra.symbols_in_box(box)
    report = AxiomReport(spec.as_dict(), box, spec.algebra.index_names)
    # cache single applications: the inner x.(y.f) terms are fresh each time,
    # but y.f, x.f and the bracket-symbol images recur constantly
    act = spec.act_basis
    cache: dict[tuple[BasisSymbol, int], object] = {}

    def act_cached(s: BasisSymbol, f_idx: int):
        key = (s, f_idx)
        hit = cache.get(key)
        if hit is None:
            hit = act(s, vectors[f_idx])
            cache[key] = hit
        return hit

    bp = spec.algebra.bracket_pairs
    for a in range(len(syms)):
        x = syms[a]
        for b in range(a + 1, len(syms)):
            y = syms[b]
            pairs = bp(x, y)
            report.pairs_checked += 1
            for f_idx in range(len(vectors)):
                report.identities_checked += 1
                yf = act_cached(y, f_idx)
                xf = act_cached(x, f_idx)
                rhs = act(x, yf) - act(y, xf)
                lhs = None
                for s, c in pairs:
                    term = act_cached(s, f_idx) * c
                    lhs = term if lhs is None else lhs + term
                if lhs is None:
                    if rhs:
                        report.violations.append(
                            f"[{x},{y}].{vectors[f_idx]} = 0 but commutator gives {rhs}"
                        )
                elif lhs != rhs:
                    report.violations.append(
                        f"[{x},{y}].{vectors[f_idx]}: bracket action {lhs} != commutator {rhs}"
                    )
    return report


# ---------------------------------------------------------------------------
# Submodule and composition series checks
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    spec: dict
    box: IndexBox
    index_names: tuple[str, ...]
    invariant: bool
    checked: int
    witness: str | None = None

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
        g, f, image = escape
        report.witness = f"{g} . ({f}) = {image} has constant term {image.constant_term}"
    return report


@dataclass
class CompositionReport:
    """Three exact facts about the alpha = 0 loop module on a window:

    (a) the zero-constant-term subspace is invariant;
    (b) the quotient by it is trivial: every non-central generator sends 1
        into the subspace, and central generators act as zero;
    (c) stripping t intertwines the subspace with the alpha = 1 module.
    """

    lam: GaussianRational
    mu: GaussianRational
    box: IndexBox
    max_degree: int
    invariance_ok: bool
    trivial_quotient_ok: bool
    intertwiner_ok: bool
    detail: list[str] = field(default_factory=list)

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

    The test vectors are t, .., t^max_degree, so max_degree must be >= 1:
    with none, the invariance and intertwiner facts would pass vacuously.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    lam, mu = scalar(lam), scalar(mu)
    spec0 = OmegaLoop(lam, mu, 0)
    spec1 = OmegaLoop(lam, mu, 1)
    detail: list[str] = []
    # t, .., t^D: max_degree, not DEGREE_CAP, bounds them
    t_powers = [Polynomial._from_scalars((ZERO,) * k + (ONE,)) for k in range(1, max_degree + 1)]

    inv = submodule_invariance_check(spec0, box, t_powers)
    if not inv.ok:
        detail.append(inv.witness or "invariance failed")

    # (b) trivial quotient: x . 1 lands in the subspace for L-generators,
    # and central generators kill everything
    trivial = True
    for g in spec0.algebra.symbols_in_box(box):
        image = spec0.act_basis(g, P_ONE)
        if g[0] == "C":
            if image:
                trivial = False
                detail.append(f"central {g} acts as {image} on 1")
        elif image.constant_term:
            trivial = False
            detail.append(f"{g} . 1 = {image} escapes the subspace")

    # (c) the intertwiner: strip_t(x . g) = x . strip_t(g) across modules
    intertwiner = True
    for g in spec0.algebra.symbols_in_box(box):
        for vec in t_powers:
            lhs = spec0.act_basis(g, vec)
            rhs = spec1.act_basis(g, strip_t(vec))
            try:
                lhs_stripped = strip_t(lhs)
            except NotInSubmoduleError:
                intertwiner = False
                detail.append(f"{g} . {vec} = {lhs} left the submodule")
                continue
            if lhs_stripped != rhs:
                intertwiner = False
                detail.append(
                    f"strip({g} . {vec}) = {lhs_stripped} != {rhs} = {g} . strip({vec})"
                )
    return CompositionReport(
        lam, mu, box, max_degree, inv.ok, trivial, intertwiner, detail
    )


# ---------------------------------------------------------------------------
# Isomorphism classification
# ---------------------------------------------------------------------------


@dataclass
class ClassifyResult:
    isomorphic: bool
    params: dict[str, GaussianRational] | None = None
    differing: str | None = None
    reason: str | None = None
    derivation_a: Derivation | None = None
    derivation_b: Derivation | None = None

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


@dataclass
class CenterReport:
    algebra: Algebra
    box: IndexBox
    declared: list[tuple[str, bool, str | None]] = field(default_factory=list)
    extra_commuting: list[str] = field(default_factory=list)

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
    """
    report = CenterReport(algebra, box)
    declared = algebra.declared_central(box)
    for sym in declared:
        res = centrality_check(algebra, sym, box)
        report.declared.append((str(sym), res.central, res.witness))
    declared_set = set(declared)
    syms = algebra.symbols_in_box(box)
    for cand in syms:
        if cand in declared_set:
            continue
        if centrality_check(algebra, cand, box).central:
            report.extra_commuting.append(str(cand))
    return report
