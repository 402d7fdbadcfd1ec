"""Command-line front end.

Subcommands
-----------
bracket ELEM ELEM         expand a bracket of two elements
act ELEM VECTOR           apply an element to a module vector
check jacobi              Jacobi + antisymmetry sweep over a box
check module              module-axiom sweep for one family instance
check center              declared center + box-commutation scan
check composition         the alpha = 0 submodule-chain facts
probe simplicity          span-closure probe of a rank-one family
probe tensor              span-closure probe of a tensor product
classify TABLE [TABLE]    derive parameters / compare two action tables
emit-table                write the action table of a family as JSON

Exit codes: 0 success (probe and classify verdicts are data, not errors);
1 a `check` command found a violation; 2 usage or parse errors; 3 an
internal error (a bug in cartanfree: the traceback goes to stderr), so a
crash never reads as a failed check.

Literal grammars (the single source of truth for all text I/O, UTF-8):

    rat    ::= ['-'] int ['/' int]
    scalar ::= rat | rat ('+'|'-') rat 'i' | rat 'i'          e.g. -1/2+2/3i
    poly   ::= ['-'] term (('+'|'-') term)*                  e.g. -t^2 + 1
    term   ::= scalar | [scalar '*'] varpow ('*' varpow)*
    varpow ::= ('t' | 't' uint) ['^' uint]                    e.g. 2*t^3 - 1/2*t + 1, t1^2*t2
    gen    ::= 'L(' int [',' int] ')' | 'C' ['(' int ')']
    elem   ::= ['-'] [scalar '*'] gen (('+'|'-') [scalar '*'] gen)*   e.g. -L(1,2) - 3*C(0)

A leading '-' before a variable or generator negates the first term;
before a digit it is the sign of the scalar literal, as in -1/2*t.

Scalars bind tightly (no whitespace inside a literal); L takes one index
for the Virasoro algebra and two otherwise; C takes an index only for the
loop algebra.  Boxes are ``--box 3`` (symmetric) or ``--box i=-2..2,j=0..3``.
By default ``--q`` must be real (rational); pass ``--allow-complex-q`` to
lift that.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .algebras import (
    Algebra,
    IndexBox,
    algebra_from_name,
    jacobi_check,
    parse_box,
    parse_element,
    virasoro_embedding_check,
)
from .analysis import (
    ProbeConfig,
    center_report,
    composition_series_check,
    isomorphism_classify,
    module_axiom_check,
    simplicity_probe,
    tensor_irreducibility_probe,
)
from .errors import ParseError, ToolkitError
from .modules import (
    ActionTable,
    ModuleSpec,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    build_action_table,
    derive_parameters,
)
from .polynomials import parse_polynomial
from .scalars import parse_scalar

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3


class _CliError(Exception):
    """Usage-level error: reported on stderr with exit code 2."""


def _add_algebra_flags(p: argparse.ArgumentParser, default: str | None = None) -> None:
    p.add_argument(
        "--algebra",
        choices=["virasoro", "loop", "block", "block-hat", "block-trunc"],
        default=default,
        required=default is None,
        help="which algebra the command works over",
    )
    p.add_argument("--q", help="Block parameter q (nonzero scalar; rational by default)")
    p.add_argument("--k", type=int, help="lower truncation index (block-trunc)")
    p.add_argument("--l", type=int, help="upper truncation index (block-trunc)")
    p.add_argument(
        "--allow-complex-q",
        action="store_true",
        help="accept a q with nonzero imaginary part",
    )


def _add_module_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda", dest="lam", help="module parameter lambda (nonzero)")
    p.add_argument("--mu", help="loop module parameter mu (nonzero)")
    p.add_argument("--alpha", help="module parameter alpha")
    p.add_argument("--beta", help="module parameter beta (only block with q = -1)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--box", default="3", help="index box: N or name=lo..hi[,name=lo..hi]")
    p.add_argument("--json", action="store_true", help="emit a JSON report")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cartanfree",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="expand [ELEM1, ELEM2]")
    p.add_argument("elem1")
    p.add_argument("elem2")
    _add_algebra_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_bracket)

    p = sub.add_parser("act", help="apply ELEM to a module vector")
    p.add_argument("elem")
    p.add_argument("vector")
    _add_algebra_flags(p)
    _add_module_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_act)

    check = sub.add_parser("check", help="assertion-style verification sweeps")
    check_sub = check.add_subparsers(dest="check_command", required=True)

    p = check_sub.add_parser("jacobi", help="Jacobi identity over a box")
    _add_algebra_flags(p)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_check_jacobi)

    p = check_sub.add_parser("module", help="module axioms for one family instance")
    _add_algebra_flags(p)
    _add_module_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--polys",
        default="1;t;t^2;t^3-t",
        help="semicolon-separated test vectors",
    )
    p.set_defaults(run=_cmd_check_module)

    p = check_sub.add_parser("center", help="centrality of the declared center")
    _add_algebra_flags(p)
    _add_common_flags(p)
    p.add_argument(
        "--embedding",
        action="store_true",
        help="also check the rescaled Virasoro copy inside block algebras",
    )
    p.set_defaults(run=_cmd_check_center)

    p = check_sub.add_parser("composition", help="submodule chain facts at alpha = 0")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    _add_common_flags(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(run=_cmd_check_composition)

    probe = sub.add_parser("probe", help="span-closure probes (verdicts are data)")
    probe_sub = probe.add_subparsers(dest="probe_command", required=True)

    p = probe_sub.add_parser("simplicity", help="probe a rank-one family")
    _add_algebra_flags(p)
    _add_module_flags(p)
    _add_common_flags(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("--seeds", default="1;t;t^2+1;t^3-t", help="semicolon-separated seeds")
    p.set_defaults(run=_cmd_probe_simplicity)

    p = probe_sub.add_parser("tensor", help="probe a tensor product of loop factors")
    p.add_argument(
        "--factors",
        required=True,
        help="semicolon-separated lambda,mu,alpha triples, e.g. '2,1,1;3,1,1'",
    )
    _add_common_flags(p)
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--seeds", default="1", help="semicolon-separated seeds")
    p.set_defaults(run=_cmd_probe_tensor)

    p = sub.add_parser("classify", help="derive parameters / compare two tables")
    p.add_argument("table_a")
    p.add_argument("table_b", nargs="?")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("emit-table", help="write a family's action table as JSON")
    _add_algebra_flags(p)
    _add_module_flags(p)
    _add_common_flags(p)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(run=_cmd_emit_table)

    return top


def _get_algebra(args) -> Algebra:
    q = None
    if args.q is not None:
        q = parse_scalar(args.q)
        if q.im != 0 and not args.allow_complex_q:
            raise _CliError(
                "--q has a nonzero imaginary part; pass --allow-complex-q to accept"
            )
    try:
        return algebra_from_name(args.algebra, q=q, k=args.k, l=args.l)
    except ValueError as exc:
        raise _CliError(str(exc))


def _get_box(args, algebra: Algebra) -> IndexBox:
    return parse_box(args.box, algebra.index_names)


def _get_spec(args, algebra: Algebra) -> ModuleSpec:
    def need(name: str, value):
        if value is None:
            raise _CliError(f"--{name} is required for --algebra {args.algebra}")
        return parse_scalar(value)

    if args.algebra == "virasoro":
        if args.mu is not None or args.beta is not None:
            raise _CliError("--mu/--beta do not apply to the Virasoro family")
        return OmegaVir(need("lambda", args.lam), need("alpha", args.alpha or "0"))
    if args.algebra == "loop":
        if args.beta is not None:
            raise _CliError("--beta applies only to --algebra block --q -1")
        return OmegaLoop(
            need("lambda", args.lam), need("mu", args.mu), need("alpha", args.alpha or "0")
        )
    if args.algebra == "block":
        q = parse_scalar(args.q)
        if q == -1:
            return OmegaBlockHV(
                need("lambda", args.lam),
                need("alpha", args.alpha or "0"),
                need("beta", args.beta or "0"),
            )
        if args.beta is not None:
            raise _CliError("--beta applies only to --algebra block --q -1")
        return OmegaBlock(q, need("lambda", args.lam), need("alpha", args.alpha or "0"))
    raise _CliError(f"no module family is defined over --algebra {args.algebra}")


def _emit(args, report_dict: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(report_dict, indent=2))
    else:
        print(human)


def _cmd_bracket(args) -> int:
    algebra = _get_algebra(args)
    e1 = parse_element(algebra, args.elem1)
    e2 = parse_element(algebra, args.elem2)
    result = e1.bracket(e2)
    _emit(args, {"check": "bracket", **algebra.as_dict(), "result": str(result)}, str(result))
    return 0


def _cmd_act(args) -> int:
    algebra = _get_algebra(args)
    spec = _get_spec(args, algebra)
    elem = parse_element(algebra, args.elem)
    vec = parse_polynomial(args.vector)
    result = spec.act(elem, vec)
    _emit(
        args,
        {"check": "act", "spec": spec.as_dict(), "result": str(result)},
        str(result),
    )
    return 0


def _cmd_check_jacobi(args) -> int:
    algebra = _get_algebra(args)
    report = jacobi_check(algebra, _get_box(args, algebra))
    _emit(args, report.as_dict(), report.summary())
    return 0 if report.ok else CHECK_FAILED


def _cmd_check_module(args) -> int:
    algebra = _get_algebra(args)
    spec = _get_spec(args, algebra)
    polys = [parse_polynomial(s) for s in args.polys.split(";") if s.strip()]
    report = module_axiom_check(spec, _get_box(args, algebra), polys)
    _emit(args, report.as_dict(), report.summary())
    return 0 if report.ok else CHECK_FAILED


def _cmd_check_center(args) -> int:
    algebra = _get_algebra(args)
    box = _get_box(args, algebra)
    report = center_report(algebra, box)
    ok = report.ok
    human = [report.summary()]
    payload = report.as_dict()
    if args.embedding:
        if args.q is None:
            raise _CliError("--embedding needs --q")
        emb = virasoro_embedding_check(parse_scalar(args.q), IndexBox(box.first))
        ok = ok and emb.ok
        human.append(emb.summary())
        payload = {"check": "center+embedding", "center": payload, "embedding": emb.as_dict()}
    _emit(args, payload, "\n".join(human))
    return 0 if ok else CHECK_FAILED


def _cmd_check_composition(args) -> int:
    box = parse_box(args.box, ("i", "j"))
    report = composition_series_check(
        parse_scalar(args.lam), parse_scalar(args.mu), box, args.max_degree
    )
    _emit(args, report.as_dict(), report.summary())
    return 0 if report.ok else CHECK_FAILED


def _parse_seeds(text: str):
    seeds = [parse_polynomial(s) for s in text.split(";") if s.strip()]
    if not seeds:
        raise _CliError("--seeds must name at least one polynomial")
    return tuple(seeds)


def _cmd_probe_simplicity(args) -> int:
    algebra = _get_algebra(args)
    spec = _get_spec(args, algebra)
    cfg = ProbeConfig(
        box=_get_box(args, algebra),
        max_degree=args.max_degree,
        seeds=_parse_seeds(args.seeds),
    )
    verdict = simplicity_probe(spec, cfg)
    _emit(args, verdict.as_dict(), verdict.summary())
    return 0


def _cmd_probe_tensor(args) -> int:
    factors = []
    for part in args.factors.split(";"):
        bits = [b.strip() for b in part.split(",")]
        if len(bits) != 3:
            raise _CliError(f"factor {part!r} must be lambda,mu,alpha")
        factors.append(tuple(parse_scalar(b) for b in bits))
    cfg = ProbeConfig(
        box=parse_box(args.box, ("i", "j")),
        max_degree=args.max_degree,
        seeds=_parse_seeds(args.seeds),
    )
    verdict = tensor_irreducibility_probe(factors, cfg)
    _emit(args, verdict.as_dict(), verdict.summary())
    return 0


def _cmd_classify(args) -> int:
    with open(args.table_a, encoding="utf-8") as fh:
        table_a = ActionTable.from_json(fh.read())
    if args.table_b is None:
        deriv = derive_parameters(table_a)
        _emit(args, deriv.as_dict(), deriv.summary())
        return 0
    with open(args.table_b, encoding="utf-8") as fh:
        table_b = ActionTable.from_json(fh.read())
    result = isomorphism_classify(table_a, table_b)
    _emit(args, result.as_dict(), result.summary())
    return 0


def _cmd_emit_table(args) -> int:
    algebra = _get_algebra(args)
    spec = _get_spec(args, algebra)
    table = build_action_table(spec, _get_box(args, algebra))
    text = table.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if not args.json:
            print(f"wrote {len(table.entries)} entries to {args.out}")
    else:
        print(text)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (_CliError, FileNotFoundError, ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        import traceback  # only on this path, to keep start-up lean

        traceback.print_exc()
        print("internal error: this is a bug in cartanfree", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
