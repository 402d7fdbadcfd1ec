"""Every text literal is read by the one scanner in scalars.py.

``scan_sum`` runs the sum-of-terms loop (separators, a leading minus, an
optional ``scalar '*'``) for polynomials and algebra elements, and
``skip_ws`` is the one whitespace loop.  A parser that scans scalars or
whitespace on its own would be a second copy of that logic that the
parser tests see only through its own inputs, so these tests fail on one.
``str.isdigit`` is refused everywhere: it accepts Unicode digits such as
'²', which ``int()`` rejects, and '٣', which it reads as 3.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cartanfree").glob("*.py"))

ONLY_IN = {
    "scan_scalar": {"scalars.scan_sum", "scalars.parse_scalar"},
    "isspace": {"scalars.skip_ws"},
    "isdigit": set(),
}


def _uses(path: Path) -> list[tuple[str, str]]:
    """(watched name, qualified enclosing function) for each call of a watched name."""
    found = []

    def visit(node: ast.AST, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{qual}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ONLY_IN:
                    found.append((name, qual))
            visit(child, qual)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.stem)
    return found


USES = {path.name: _uses(path) for path in SOURCES}


def test_sources_found():
    assert "scalars.py" in USES and "polynomials.py" in USES and "algebras.py" in USES


@pytest.mark.parametrize("name", sorted(USES))
def test_no_second_scanner(name):
    stray = [(watched, qual) for watched, qual in USES[name] if qual not in ONLY_IN[watched]]
    assert not stray, f"{name}: scanning outside scalars.scan_sum / skip_ws: {stray}"


@pytest.mark.parametrize("qual", ["polynomials.parse_polynomial", "algebras.parse_element"])
def test_parser_runs_scan_sum(qual):
    module, _, func = qual.partition(".")
    tree = ast.parse(
        next(p for p in SOURCES if p.stem == module).read_text(encoding="utf-8")
    )
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func]
    calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "scan_sum"]
    assert len(calls) == 1
