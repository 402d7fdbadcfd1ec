"""The names and shapes the benchmark's per-layer tracer relies on.

``bench/tracing.py`` wraps methods through ``cls.__dict__[name]`` and reads
a few attributes after each call, so a refactor that renames, inherits or
reshapes one of them breaks ``bench/run.py --trace 1`` without failing
anything else.  These tests pin that contract.
"""

from __future__ import annotations

import pytest

from cartanfree import (
    ActionTable,
    AlgebraElement,
    ModuleSpec,
    MultiPolynomial,
    OmegaLoop,
    Polynomial,
    SpanBasis,
    TensorOmega,
    L,
    T,
    scalar,
)

WRAPPED = [
    (Polynomial, "shift"),
    (Polynomial, "mul_linear"),
    (Polynomial, "scale"),
    (Polynomial, "__add__"),
    (Polynomial, "__sub__"),
    (MultiPolynomial, "shift_var"),
    (MultiPolynomial, "mul_linear_var"),
    (MultiPolynomial, "scale"),
    (MultiPolynomial, "__add__"),
    (SpanBasis, "insert"),
    (SpanBasis, "contains"),
    (ActionTable, "to_json"),
    (ActionTable, "from_json"),
    (ModuleSpec, "act"),
    (ModuleSpec, "act_basis"),
    (TensorOmega, "act_basis"),
    (AlgebraElement, "bracket"),
]


@pytest.mark.parametrize("cls,attr", WRAPPED, ids=[f"{c.__name__}.{a}" for c, a in WRAPPED])
def test_wrapped_method_is_defined_on_the_class(cls, attr):
    # defined on the class itself, not inherited: the tracer reads cls.__dict__
    assert attr in cls.__dict__


def test_from_json_is_a_staticmethod():
    assert isinstance(ActionTable.__dict__["from_json"], staticmethod)


def test_span_rows_hold_scalars_with_components():
    basis = SpanBasis(3)
    basis.insert([scalar("1/2"), scalar(0), scalar("2+1i")])
    basis.insert([scalar(1), scalar(3), scalar(0)])
    for row in basis.rows:
        for c in row:
            assert isinstance(c.a, int) and isinstance(c.b, int) and isinstance(c.d, int)


def test_shift_argument_exposes_coeffs():
    # the tracer records the degree of every shifted polynomial from len(coeffs)
    f = (T * T).scale(scalar("1/3"))
    assert len(f.coeffs) - 1 == f.degree == 2


def test_act_basis_arguments_are_hashable():
    # repeat ratios key on (spec, symbol, vector)
    spec = OmegaLoop(2, 3, 1)
    key = (spec, L(1, 1), spec.act_basis(L(1, 1), T))
    assert hash(key) == hash((OmegaLoop(2, 3, 1), L(1, 1), spec.act_basis(L(1, 1), T)))
    tensor = TensorOmega([(2, 3, 1), (1, 1, 0)])
    hash((tensor, L(1, 1), tensor.act_basis(L(1, 1), tensor.one())))  # raises if unhashable
