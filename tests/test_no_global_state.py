"""No module of the package rebinds a module-level name at run time.

Limits come from the request (a window, a box), never from a hidden knob,
so no source file may contain a ``global`` statement.  Nor does a check
leave state on the algebra objects it reads.
"""

import ast
from pathlib import Path

import pytest

from cartanfree import (
    LOOP,
    P_ONE,
    VIRASORO,
    IndexBox,
    OmegaBlock,
    OmegaLoop,
    OmegaVir,
    T,
    center_report,
    jacobi_check,
    module_axiom_check,
    scalar,
    virasoro_embedding_check,
)

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cartanfree").glob("*.py"))


def test_sources_found():
    assert any(p.name == "algebras.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_global_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert not lines, f"{path.name}: global statement at line(s) {lines}"


def test_checks_keep_no_state_on_algebras():
    # LOOP and VIRASORO are module singletons that every check shares, so a
    # memo kept on an algebra would carry over from one check to the next
    q = scalar("1/2")
    specs = [OmegaVir(2, 1), OmegaLoop(2, 3, 1), OmegaBlock(q, 2, 1)]
    algebras = [spec.algebra for spec in specs]
    assert algebras[0] is VIRASORO and algebras[1] is LOOP
    boxes = [IndexBox((-2, 2)), IndexBox((-2, 2), (-1, 1)), IndexBox((-2, 2), (0, 2))]

    def state():
        return [(dict(vars(a)), sorted(vars(type(a)))) for a in algebras]

    before = state()
    for spec, box in zip(specs, boxes):
        jacobi_check(spec.algebra, box)
        center_report(spec.algebra, box)
        module_axiom_check(spec, box, (P_ONE, T))
    virasoro_embedding_check(q, IndexBox((-3, 3)))
    assert state() == before
