"""No module of the package keeps a dead private helper.

Every module-level function or class whose name starts with ``_`` must be
named somewhere in the package's sources besides its own definition: as a
name, an attribute or an imported name, in any module, outside the body of
that definition (so a helper that only calls itself is still dead).
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cartanfree").glob("*.py"))


def names_in(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_private_helper_is_used():
    helpers = []  # (module, name, the definition's node)
    uses = []  # (node, names named in it), one per top-level statement
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                helpers.append((path.name, stmt.name, stmt))
            uses.append((stmt, names_in(stmt)))
    assert any(name == "_primitive" for _, name, _ in helpers)  # the scan sees the helpers
    dead = [
        f"{module}: {name}"
        for module, name, node in helpers
        if not any(name in names for stmt, names in uses if stmt is not node)
    ]
    assert not dead, f"module-level private helpers named nowhere else: {dead}"
