"""Every rank-one operator on polynomials runs the one fused kernel.

``shift``, ``mul_linear`` and their ``_var`` forms are rules passed to
``apply_rank_one``; only ``_rank_one_num`` runs the Taylor shift and the
affine multiply, and only ``MultiPolynomial.apply_rank_one`` splits a
multivariate polynomial into columns.  A second integer loop for any of
these operators would be a second code path that the kernel tests do not
see, so these tests fail on one.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cartanfree" / "polynomials.py"

ONLY_USER = {
    "_shift_num": "_rank_one_num",
    "_mul_affine": "_rank_one_num",
    "_columns": "MultiPolynomial.apply_rank_one",
    "_scatter": "MultiPolynomial.apply_rank_one",
}

RULES = [
    ("Polynomial", "shift"),
    ("Polynomial", "mul_linear"),
    ("MultiPolynomial", "shift_var"),
    ("MultiPolynomial", "mul_linear_var"),
]


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Qualified name -> definition, for module functions and methods."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return out


TREE = ast.parse(SOURCE.read_text(encoding="utf-8"), filename=str(SOURCE))
FUNCTIONS = _functions(TREE)


def _users(name: str) -> set[str]:
    """The qualified names of the functions that mention ``name``; '<module>' for top-level code."""
    inside = set()
    users = set()
    for qual, fn in FUNCTIONS.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == name:
                users.add(qual)
                inside.add(id(node))
    for node in ast.walk(TREE):
        if isinstance(node, ast.Name) and node.id == name and id(node) not in inside:
            users.add("<module>")
    return users


@pytest.mark.parametrize("helper", sorted(ONLY_USER))
def test_kernel_helper_has_one_caller(helper):
    assert helper in FUNCTIONS, f"{helper} is no longer defined in polynomials.py"
    assert _users(helper) == {ONLY_USER[helper]}


@pytest.mark.parametrize("cls,method", RULES, ids=[f"{c}.{m}" for c, m in RULES])
def test_operator_is_one_call_into_the_kernel(cls, method):
    body = FUNCTIONS[f"{cls}.{method}"].body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    assert len(body) == 1 and isinstance(body[0], ast.Return), f"{cls}.{method} is not one return"
    call = body[0].value
    assert isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
    assert call.func.attr == "apply_rank_one"
    assert isinstance(call.func.value, ast.Name) and call.func.value.id == "self"
