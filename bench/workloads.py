"""The benchmark's workloads: one pass of checks, drawn from a seed.

A check is one verdict-producing call into `cartanfree` (an axiom sweep, a
probe, a Jacobi sweep, one CLI invocation).  `Check.run` is the timed call;
`Check.verify` compares its verdict with the answer the paper predicts and
is never timed.

Every pass has a fixed schedule of check kinds and window sizes; the seed
only picks parameters from the paper's grids.  That keeps the cost of a
pass nearly the same for every seed, so runs with different seeds measure
the same input mix.  Spec objects are built inside `run`, so no state
(such as a family's power cache) carries over from one pass to the next.

Inputs that trip the defects listed in ROADMAP.md are kept out: vectors
of rank-one families are univariate, every window stays under the default
degree cap of 64 (`set_degree_cap` is never called), no literal starts
with a unary minus in front of a variable or generator, and negative CLI
scalars are passed as `--flag=value`, since argparse reads `--flag -1/2`
as two flags.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cartanfree as cf
import cartanfree.cli  # noqa: F401  (cf.cli.main is looked up per call)
import oracle
from cartanfree.analysis import GRID_ALPHA, GRID_BETA, GRID_LAMBDA_MU, GRID_Q

NAMES = ("axioms", "closure", "structure")


@dataclass
class Check:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], bool]


def inputs_digest(checks: list[Check]) -> str:
    """sha256 of the drawn inputs, one label per check."""
    return hashlib.sha256("\n".join(c.label for c in checks).encode()).hexdigest()


def draw(name: str, seed: int, table_dir: Path) -> list[Check]:
    """One pass of the named workload.  `table_dir` holds CLI table files."""
    rng = random.Random(f"{name}:{seed}")
    if name == "axioms":
        return _axioms(rng)
    if name == "closure":
        return _closure(rng)
    if name == "structure":
        return _structure(rng, table_dir)
    raise ValueError(f"unknown workload {name!r}")


# -- shared inputs --------------------------------------------------------------

BOX2_VIR = cf.IndexBox((-2, 2))
BOX2_LOOP = cf.IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = cf.IndexBox((-2, 2), (0, 2))
BOX1_LOOP = cf.IndexBox((-1, 1), (-1, 1))
BOX3_BLOCK = cf.IndexBox((-3, 3), (0, 3))
BOX4_LOOP = cf.IndexBox((-4, 4), (-4, 4))
BOX4_CENTER = cf.IndexBox((-4, 4), (0, 4))
BOX4_VIR = cf.IndexBox((-4, 4))

NONZERO_ALPHA = tuple(a for a in GRID_ALPHA if a)
Q_BLOCK = tuple(q for q in GRID_Q if q != -1)  # OmegaBlock excludes q = -1
PAIRS = tuple((lam, mu) for lam in GRID_LAMBDA_MU for mu in GRID_LAMBDA_MU)


# -- axioms ---------------------------------------------------------------------

# module_axiom_check on the criterion-2 test vectors.  The counts put the
# median among the OmegaBlock checks and the 90th percentile among the
# OmegaLoop checks for every seed.  Cost-relevant parameters are fixed by
# slot rather than drawn: beta alternates 0, 2 (beta = 0 silences a whole
# row of OmegaBlockHV) and every fourth loop instance has alpha = 0.
AXIOM_SCHEDULE = (("vir", 8), ("block", 20), ("hv", 4), ("tensor", 6), ("loop", 12))


def _axiom_check(label: str, make_spec, box, polys) -> Check:
    n = len(polys)

    def verify(report) -> bool:
        return report.ok and report.pairs_checked > 0 and report.identities_checked == report.pairs_checked * n

    return Check(f"axioms {label}", lambda: cf.module_axiom_check(make_spec(), box, polys), verify)


def _axioms(rng: random.Random) -> list[Check]:
    polys = (cf.P_ONE, cf.T, cf.monomial(2), cf.parse_polynomial("t^3 - t"))
    tensor_polys = (
        cf.MultiPolynomial.constant(2, 1),
        cf.parse_polynomial("t1"),
        cf.parse_polynomial("t1^2 + t2"),
        cf.parse_polynomial("t1*t2"),
    )
    lam_mu, alphas = GRID_LAMBDA_MU, GRID_ALPHA
    checks = []
    for kind, count in AXIOM_SCHEDULE:
        for slot in range(count):
            lam, alpha = rng.choice(lam_mu), rng.choice(alphas)
            if kind == "vir":
                checks.append(_axiom_check(
                    f"omega-vir lambda={lam} alpha={alpha} box=2",
                    lambda lam=lam, alpha=alpha: cf.OmegaVir(lam, alpha), BOX2_VIR, polys))
            elif kind == "loop":
                mu = rng.choice(lam_mu)
                alpha = cf.ZERO if slot % 4 == 0 else rng.choice(NONZERO_ALPHA)
                checks.append(_axiom_check(
                    f"omega-loop lambda={lam} mu={mu} alpha={alpha} box=2",
                    lambda lam=lam, mu=mu, alpha=alpha: cf.OmegaLoop(lam, mu, alpha), BOX2_LOOP, polys))
            elif kind == "block":
                q = rng.choice(Q_BLOCK)
                checks.append(_axiom_check(
                    f"omega-block q={q} lambda={lam} alpha={alpha} box=2",
                    lambda q=q, lam=lam, alpha=alpha: cf.OmegaBlock(q, lam, alpha), BOX2_BLOCK, polys))
            elif kind == "hv":
                beta = GRID_BETA[slot % 2]
                checks.append(_axiom_check(
                    f"omega-block-hv lambda={lam} alpha={alpha} beta={beta} box=2",
                    lambda lam=lam, alpha=alpha, beta=beta: cf.OmegaBlockHV(lam, alpha, beta),
                    BOX2_BLOCK, polys))
            else:
                factors = [(*rng.choice(PAIRS), rng.choice(alphas)) for _ in range(2)]
                checks.append(_axiom_check(
                    "tensor-omega " + ";".join(",".join(map(str, f)) for f in factors) + " box=1",
                    lambda factors=factors: cf.TensorOmega(factors), BOX1_LOOP, tensor_polys))
    return checks


# -- closure --------------------------------------------------------------------

# (family, window D, proper closure expected).  Loop and Block families fill
# the window iff alpha != 0; OmegaBlockHV iff (alpha, beta) != (0, 0).
SINGLE_SCHEDULE = (
    ("loop", 8, False), ("loop", 8, True), ("loop", 8, False), ("loop", 8, True),
    ("loop", 12, False), ("loop", 12, True),
    ("loop", 16, False), ("loop", 20, False), ("loop", 20, True), ("loop", 24, False),
    ("block", 8, False), ("block", 8, True), ("block", 12, False), ("block", 12, True),
    ("block", 16, True), ("block", 20, False), ("block", 24, False),
    ("hv", 8, True), ("hv", 8, False), ("hv", 12, False), ("hv", 16, True),
)
# (factors, window D, repeated (lambda, mu) pair).  Two factors probe the
# box-2 generators, three factors the box-1 generators.
#
# Quantiles are stable only where they fall inside a group of checks of
# about the same cost, not on the edge between two cost levels.  The six
# checks of 75-80 ms (loop D = 8, Block and OmegaBlockHV D = 16) hold the
# median; the two loop D = 20 and two 3-factor D = 4 probes (430-445 ms)
# hold the 90th percentile.
TENSOR_SCHEDULE = (
    (2, 3, False), (2, 4, False), (2, 5, False), (2, 3, True), (2, 4, True), (2, 5, True),
    (2, 3, False), (2, 4, False),
    (3, 3, False), (3, 4, False), (3, 4, False), (3, 3, True), (3, 4, True),
)


def _single_probe(rng: random.Random, family: str, D: int, proper: bool) -> Check:
    lam = rng.choice(GRID_LAMBDA_MU)
    if family == "hv":
        if proper:
            alpha = beta = cf.ZERO
        else:
            alpha, beta = rng.choice([(a, b) for a in GRID_ALPHA for b in GRID_BETA if a or b])
        label = f"omega-block-hv lambda={lam} alpha={alpha} beta={beta}"
        make = lambda: cf.OmegaBlockHV(lam, alpha, beta)  # noqa: E731
        box = BOX2_BLOCK
    else:
        alpha = cf.ZERO if proper else rng.choice(NONZERO_ALPHA)
        if family == "loop":
            mu = rng.choice(GRID_LAMBDA_MU)
            label = f"omega-loop lambda={lam} mu={mu} alpha={alpha}"
            make = lambda: cf.OmegaLoop(lam, mu, alpha)  # noqa: E731
            box = BOX2_LOOP
        else:
            q = rng.choice(Q_BLOCK)
            label = f"omega-block q={q} lambda={lam} alpha={alpha}"
            make = lambda: cf.OmegaBlock(q, lam, alpha)  # noqa: E731
            box = BOX2_BLOCK
    cfg = cf.ProbeConfig(box=box, max_degree=D)

    def verify(v) -> bool:
        if proper:
            return not v.fills and v.dim == D and v.certificate == "invariant-certified"
        return v.fills and v.dim == D + 1

    return Check(f"closure simplicity {label} D={D} box=2", lambda: cf.simplicity_probe(make(), cfg), verify)


def _tensor_probe(rng: random.Random, m: int, D: int, repeated: bool) -> Check:
    pairs = [rng.choice(PAIRS)] * m if repeated else rng.sample(PAIRS, m)
    factors = [(lam, mu, rng.choice(GRID_ALPHA)) for lam, mu in pairs]
    box = BOX2_LOOP if m == 2 else BOX1_LOOP
    cfg = cf.ProbeConfig(box=box, max_degree=D, seeds=(cf.P_ONE,))

    def verify(v) -> bool:
        # A repeated pair: only verdict and dim are fixed by the paper; the
        # certificate string is free to improve.
        if repeated:
            return not v.fills and v.dim == D + 1
        return v.fills and v.dim == (D + 1) ** m

    label = ";".join(",".join(map(str, f)) for f in factors)
    return Check(
        f"closure tensor {label} D={D} box={2 if m == 2 else 1}",
        lambda: cf.tensor_irreducibility_probe(cf.TensorOmega(factors), cfg),
        verify,
    )


def _closure(rng: random.Random) -> list[Check]:
    checks = [_single_probe(rng, *slot) for slot in SINGLE_SCHEDULE]
    checks += [_tensor_probe(rng, *slot) for slot in TENSOR_SCHEDULE]
    return checks


# -- structure ------------------------------------------------------------------

# Literal pools as (text, exact value).  Leading coefficients come from
# FIRST, which holds no negative value: a positional argument that starts
# with '-' is read by argparse as a flag.
FIRST = (
    ("1", oracle.num(1)), ("2", oracle.num(2)), ("3", oracle.num(3)),
    ("1/2", oracle.num("1/2")), ("3/2", oracle.num("3/2")),
    ("1+1i", oracle.num(1, 1)), ("2-1/2i", oracle.num(2, "-1/2")),
)
ANY = FIRST + (
    ("-1", oracle.num(-1)), ("-1/2", oracle.num("-1/2")), ("-2+1i", oracle.num(-2, 1)),
    ("1i", oracle.num(0, 1)), ("-1i", oracle.num(0, -1)),
)
PERTURB = {"lambda": lambda v: v * 2, "mu": lambda v: v * 2, "alpha": lambda v: v + 1, "beta": lambda v: v + 1}


def _cli(argv: list[str]) -> tuple[int, str]:
    """cartanfree.cli.main(argv) with stdout captured; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cf.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _flags(params: dict) -> list[str]:
    return [f"--{k}={v}" for k, v in params.items()]


def _jacobi(label: str, make_algebra, box) -> Check:
    return Check(f"structure jacobi {label}", lambda: cf.jacobi_check(make_algebra(), box), lambda r: r.ok)


def _center(q) -> Check:
    expected = oracle.declared_center(oracle.of_scalar(q))
    pairs = oracle.embedding_pairs(4)

    def run():
        return cf.center_report(cf.BlockHat(q), BOX4_CENTER), cf.virasoro_embedding_check(q, BOX4_VIR)

    def verify(result) -> bool:
        report, emb = result
        names = {name for name, _, _ in report.declared}
        return report.ok and names == expected and emb.ok and emb.pairs_checked == pairs

    return Check(f"structure center+embedding q={q} box=4", run, verify)


def _round_trip(rng: random.Random, family: str, table_dir: Path) -> list[Check]:
    """emit-table, classify it back, emit a perturbed table, classify the pair."""
    lam, alpha = rng.choice(GRID_LAMBDA_MU), rng.choice(GRID_ALPHA)
    if family == "loop":
        algebra, q = ["--algebra", "loop"], None
        params = {"lambda": lam, "mu": rng.choice(GRID_LAMBDA_MU), "alpha": alpha}
    elif family == "virasoro":
        algebra, q = ["--algebra", "virasoro"], None
        params = {"lambda": lam, "alpha": alpha}
    else:
        q = rng.choice(GRID_Q)
        algebra = ["--algebra", "block", f"--q={q}"]
        params = {"lambda": lam, "alpha": alpha}
        if q == -1:
            params["beta"] = rng.choice(GRID_BETA)
    changed = rng.choice(sorted(params))
    other = dict(params, **{changed: PERTURB[changed](params[changed])})
    size = oracle.table_size(family, oracle.of_scalar(q) if q is not None else None, 2)
    stem = f"{family}-{'-'.join(str(v) for v in params.values())}".replace("/", "_")
    path_a, path_b = table_dir / f"{stem}-a.json", table_dir / f"{stem}-b.json"
    expected = {k: str(v) for k, v in params.items()}
    if q is not None and q != -1:
        expected = {"q": str(q), **expected}

    def emit_check(values: dict, path: Path) -> Check:
        argv = ["emit-table", *algebra, *_flags(values), "--box", "2", "--out", str(path)]

        def verify(result) -> bool:
            code, out = result
            if code != 0 or out.strip() != f"wrote {size} entries to {path}":
                return False
            body = json.loads(path.read_text(encoding="utf-8"))
            return body["algebra"] == family and len(body["entries"]) == size

        return Check(f"structure cli {' '.join(argv[:-2])}", lambda: _cli(argv), verify)

    def classify_one(result) -> bool:
        code, out = result
        return code == 0 and json.loads(out)["params"] == expected

    def classify_pair(result) -> bool:
        code, out = result
        body = json.loads(out) if code == 0 else {}
        return body.get("verdict") == "Distinct" and body.get("differing") == changed

    return [
        emit_check(params, path_a),
        Check(f"structure cli classify {stem}-a --json",
              lambda: _cli(["classify", str(path_a), "--json"]), classify_one),
        emit_check(other, path_b),
        Check(f"structure cli classify {stem}-a {stem}-b --json",
              lambda: _cli(["classify", str(path_a), str(path_b), "--json"]), classify_pair),
    ]


def _symbols(rng: random.Random, kind: str, q, count: int, with_central: bool = False) -> list[tuple]:
    """Distinct basis symbols as tuples; Block(q) never yields its excluded L(0, -2q)."""
    if kind == "virasoro":
        pool = [("L", i) for i in range(-3, 4)]
    elif kind == "loop":
        pool = [("L", i, j) for i in range(-2, 3) for j in range(-2, 3)]
    else:
        excluded = None
        neg2q = (q * -2).as_int()
        if neg2q is not None and neg2q >= 1:
            excluded = ("L", 0, neg2q)
        pool = [("L", m, i) for m in range(-3, 4) for i in range(0, 3) if ("L", m, i) != excluded]
    syms = rng.sample(pool, count)
    if with_central:
        syms[-1] = ("C", rng.randint(-2, 2)) if kind == "loop" else ("C",)
    return syms


def _render_sym(s: tuple) -> str:
    return s[0] if len(s) == 1 else f"{s[0]}({','.join(map(str, s[1:]))})"


def _element(rng: random.Random, syms: list[tuple]) -> tuple[str, dict]:
    """A literal with a non-negative leading coefficient, plus its exact terms."""
    parts, terms = [], {}
    for k, s in enumerate(syms):
        text, value = rng.choice(FIRST if k == 0 else ANY)
        parts.append(f"{text}*{_render_sym(s)}")
        terms[s] = value
    return " + ".join(parts), terms


def _bracket_check(rng: random.Random, kind: str) -> Check:
    q = rng.choice(GRID_Q) if kind == "block" else None
    x_text, xs = _element(rng, _symbols(rng, kind, q, 2))
    y_text, ys = _element(rng, _symbols(rng, kind, q, 2, with_central=kind != "virasoro"))
    expected = oracle.bracket(kind, oracle.of_scalar(q) if q is not None else None, xs, ys)
    algebra = ["--algebra", kind] + ([f"--q={q}"] if q is not None else [])
    argv = ["bracket", x_text, y_text, *algebra]
    alg = cf.algebra_from_name(kind, q=q)

    def verify(result) -> bool:
        code, out = result
        if code != 0:
            return False
        got = cf.parse_element(alg, out.strip())
        return {tuple(s): oracle.of_scalar(c) for s, c in got.terms.items()} == expected

    return Check(f"structure cli {' '.join(argv)}", lambda: _cli(argv), verify)


def _act_check(rng: random.Random, kind: str) -> Check:
    params = {"lambda": rng.choice(GRID_LAMBDA_MU)}
    if kind == "loop":
        params["mu"] = rng.choice(GRID_LAMBDA_MU)
    params["alpha"] = rng.choice(GRID_ALPHA)
    elem_text, terms = _element(rng, _symbols(rng, kind, None, 2, with_central=kind == "loop"))
    (c3, v3), (c1, v1), (c0, v0) = rng.choice(FIRST), rng.choice(ANY), rng.choice(ANY)
    vector = f"{c3}*t^3 + {c1}*t + {c0}"
    coeffs = [v0, v1, oracle.ZERO, v3]
    exact = {k: oracle.of_scalar(v) for k, v in params.items()}
    points = [oracle.num(t) for t in range(-2, 4)]  # six points fix a degree-4 image
    expected = [oracle.act_at(kind, exact, terms, coeffs, t) for t in points]
    argv = ["act", elem_text, vector, "--algebra", kind, *_flags(params)]

    def verify(result) -> bool:
        code, out = result
        if code != 0:
            return False
        image = cf.parse_polynomial(out.strip())
        if image.degree is not None and image.degree > 4:
            return False
        got = [oracle.of_scalar(c) for c in image.coeffs]
        return [oracle.evaluate(got, t) for t in points] == expected

    return Check(f"structure cli {' '.join(argv)}", lambda: _cli(argv), verify)


def _structure(rng: random.Random, table_dir: Path) -> list[Check]:
    # The algebra-level checks cover all of GRID_Q, so only the CLI inputs
    # depend on the seed.  The 90th percentile falls among the 16 Block and
    # BlockHat sweeps, the median among the 8 BlockTrunc(q, 0, 1) sweeps.
    checks = [_jacobi("loop box=4", lambda: cf.LOOP, BOX4_LOOP)]
    for q in GRID_Q:
        checks.append(_jacobi(f"block q={q} box=3", lambda q=q: cf.Block(q), BOX3_BLOCK))
        checks.append(_jacobi(f"block-hat q={q} box=3", lambda q=q: cf.BlockHat(q), BOX3_BLOCK))
        for k, l in ((0, 1), (1, 3)):
            checks.append(_jacobi(f"block-trunc q={q} k={k} l={l} box=3",
                                  lambda q=q, k=k, l=l: cf.BlockTrunc(q, k, l), BOX3_BLOCK))
    checks += [_center(q) for q in GRID_Q]
    for family in ("loop", "block", "virasoro"):
        checks += _round_trip(rng, family, table_dir)
    checks += [_bracket_check(rng, kind) for kind in ("virasoro", "loop", "block", "loop")]
    checks += [_act_check(rng, kind) for kind in ("virasoro", "loop", "virasoro", "loop")]
    return checks
