"""No module of the package keeps a dead private helper.

Every module-level function or class whose name starts with ``_`` must be
named somewhere in the package's sources besides its own definition: as a
name, an attribute or an imported name, in any module, outside the body of
that definition (so a helper that only calls itself is still dead).  The
same holds for every method of a class whose name starts with ``_`` and
is not a dunder: an override counts as a use only where it is named.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cartanfree").glob("*.py"))


def named(node: ast.AST) -> list[str]:
    """Every name, attribute and imported name in node, once per occurrence."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
    return out


def names_in(node: ast.AST) -> set[str]:
    return set(named(node))


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


def test_every_private_method_is_used():
    methods = []  # (module, class, name, the definition's node)
    counts = Counter()  # occurrences of each name in all sources
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        counts.update(named(tree))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for stmt in cls.body:
                    if (
                        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name.startswith("_")
                        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
                    ):
                        methods.append((path.name, cls.name, stmt.name, stmt))
    assert len(methods) >= 22  # the scan sees the methods
    assert ("modules.py", "ModuleSpec", "_classes") in [m[:3] for m in methods]
    dead = [
        f"{module}: {cls}.{name}"
        for module, cls, name, node in methods
        if counts[name] == named(node).count(name)
    ]
    assert not dead, f"private methods named nowhere outside their own body: {dead}"
