"""No module of the package rebinds a module-level name at run time.

Limits come from the request (a window, a box), never from a hidden knob,
so no source file may contain a ``global`` statement.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cartanfree").glob("*.py"))


def test_sources_found():
    assert any(p.name == "algebras.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_global_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert not lines, f"{path.name}: global statement at line(s) {lines}"
