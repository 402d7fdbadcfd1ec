"""The package's report, result and value classes keep their constructor and value semantics.

They are plain classes with an explicit ``__init__`` (no dataclass), so
this file pins what callers rely on: every ``__init__`` keeps its
parameter names, order and defaults; a container field defaults to a
fresh one per instance; ``IndexBox`` and ``ProbeConfig`` are immutable,
hashable values with their validation and repr; the other classes compare
field-wise, print their fields and are unhashable.
"""

import inspect

import pytest

from cartanfree import P_ONE, T, IndexBox, ProbeConfig, parse_polynomial
from cartanfree.algebras import CentralityReport, EmbeddingReport, JacobiReport
from cartanfree.analysis import (
    AxiomReport,
    CenterReport,
    ClassifyResult,
    CompositionReport,
    InvarianceReport,
    ProbeVerdict,
)
from cartanfree.modules import ActionTable, Derivation, MatchResult

REQUIRED = object()  # a parameter without a default
FRESH = object()  # a container field: a new empty list or dict per instance

SEEDS = (P_ONE, T, parse_polynomial("t^2+1"), parse_polynomial("t^3-t"))

SIGNATURES = {
    IndexBox: [("first", REQUIRED), ("second", None)],
    JacobiReport: [
        ("algebra", REQUIRED), ("box", REQUIRED), ("pairs_checked", 0), ("triples_checked", 0),
        ("brackets_evaluated", 0), ("sums_evaluated", 0), ("violations", FRESH),
    ],
    CentralityReport: [
        ("algebra", REQUIRED), ("element", REQUIRED), ("box", REQUIRED), ("central", REQUIRED), ("witness", None),
    ],
    EmbeddingReport: [("q", REQUIRED), ("box", REQUIRED), ("pairs_checked", REQUIRED), ("failures", REQUIRED)],
    ProbeConfig: [("box", IndexBox((-2, 2), (-2, 2))), ("max_degree", 4), ("seeds", SEEDS)],
    ProbeVerdict: [
        ("check", REQUIRED), ("spec", REQUIRED), ("fills", REQUIRED), ("dim", REQUIRED), ("window_dim", REQUIRED),
        ("window", REQUIRED), ("seed_dims", REQUIRED), ("witness", None), ("certificate", None), ("stats", FRESH),
    ],
    AxiomReport: [
        ("spec", REQUIRED), ("box", REQUIRED), ("index_names", REQUIRED), ("pairs_checked", 0),
        ("identities_checked", 0), ("violations", FRESH), ("representatives", 0), ("applications", 0),
    ],
    InvarianceReport: [
        ("spec", REQUIRED), ("box", REQUIRED), ("index_names", REQUIRED), ("invariant", REQUIRED),
        ("checked", REQUIRED), ("witness", None),
    ],
    CompositionReport: [
        ("lam", REQUIRED), ("mu", REQUIRED), ("box", REQUIRED), ("max_degree", REQUIRED),
        ("invariance_ok", REQUIRED), ("trivial_quotient_ok", REQUIRED), ("intertwiner_ok", REQUIRED),
        ("detail", FRESH),
    ],
    ClassifyResult: [
        ("isomorphic", REQUIRED), ("params", None), ("differing", None), ("reason", None),
        ("derivation_a", None), ("derivation_b", None),
    ],
    CenterReport: [("algebra", REQUIRED), ("box", REQUIRED), ("declared", FRESH), ("extra_commuting", FRESH)],
    ActionTable: [("algebra", REQUIRED), ("box", REQUIRED), ("entries", FRESH)],
    MatchResult: [
        ("matched", REQUIRED), ("first_mismatch", None), ("expected", None), ("found", None), ("entries_checked", 0),
    ],
    Derivation: [
        ("family", REQUIRED), ("box", REQUIRED), ("params", None), ("violation", None), ("entries_checked", 0),
        ("bracket_constraints_checked", 0),
    ],
}


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_init_keeps_names_order_and_defaults(cls):
    got = []
    for p in list(inspect.signature(cls.__init__).parameters.values())[1:]:
        if p.default is inspect.Parameter.empty:
            got.append((p.name, REQUIRED))
        elif p.default is None and (p.name, FRESH) in SIGNATURES[cls]:
            got.append((p.name, FRESH))
        else:
            got.append((p.name, p.default))
    assert got == SIGNATURES[cls]


@pytest.mark.parametrize(
    "cls", [c for c, sig in SIGNATURES.items() if any(d is FRESH for _, d in sig)], ids=lambda c: c.__name__
)
def test_container_defaults_are_fresh(cls):
    required = [None] * sum(d is REQUIRED for _, d in SIGNATURES[cls])
    a, b = cls(*required), cls(*required)
    for name, default in SIGNATURES[cls]:
        if default is FRESH:
            mine, theirs = getattr(a, name), getattr(b, name)
            assert type(mine) in (list, dict) and mine == type(mine)() and mine is not theirs


# -- IndexBox and ProbeConfig: immutable, hashable values -----------------------------


def test_index_box_value():
    box = IndexBox((-2, 2), (0, 3))
    assert box == IndexBox((-2, 2), (0, 3)) and hash(box) == hash(IndexBox((-2, 2), (0, 3)))
    assert hash(box) == hash(((-2, 2), (0, 3)))
    assert box != IndexBox((-2, 2)) and box != ((-2, 2), (0, 3))
    assert len({box, IndexBox((-2, 2), (0, 3)), IndexBox((-2, 2))}) == 2
    assert repr(box) == "IndexBox(first=(-2, 2), second=(0, 3))"
    assert repr(IndexBox((1, 1))) == "IndexBox(first=(1, 1), second=None)"


def test_probe_config_value():
    cfg = ProbeConfig(IndexBox((-1, 1)), 3, (P_ONE,))
    assert cfg == ProbeConfig(box=IndexBox((-1, 1)), max_degree=3, seeds=(P_ONE,))
    assert hash(cfg) == hash(ProbeConfig(IndexBox((-1, 1)), 3, (P_ONE,)))
    assert hash(cfg) == hash((IndexBox((-1, 1)), 3, (P_ONE,)))
    assert cfg != ProbeConfig(IndexBox((-1, 1)), 4, (P_ONE,))
    assert repr(cfg) == "ProbeConfig(box=IndexBox(first=(-1, 1), second=None), max_degree=3, seeds=(poly('1'),))"
    assert repr(ProbeConfig()) == (
        "ProbeConfig(box=IndexBox(first=(-2, 2), second=(-2, 2)), max_degree=4, "
        "seeds=(poly('1'), poly('t'), poly('t^2 + 1'), poly('t^3 - t')))"
    )


@pytest.mark.parametrize("value", [IndexBox((-1, 1), (0, 1)), ProbeConfig()], ids=lambda v: type(v).__name__)
def test_values_are_immutable(value):
    before = repr(value)
    for name in list(vars(value)) + ["other"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == before


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: IndexBox((1, 0)), "empty first-index range"),
        (lambda: IndexBox((0, 1), (2, 1)), "empty second-index range"),
        (lambda: ProbeConfig(max_degree=0), "max_degree must be >= 1"),
        (lambda: ProbeConfig(seeds=()), "need at least one seed"),
    ],
    ids=["first", "second", "max_degree", "seeds"],
)
def test_value_validation(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


# -- the reports and results: field-wise == and repr, unhashable ---------------------


def test_records_compare_field_wise():
    assert MatchResult(True, entries_checked=3) == MatchResult(True, None, None, None, 3)
    assert MatchResult(True, entries_checked=3) != MatchResult(True, entries_checked=4)
    assert MatchResult(True) != Derivation("omega-loop", IndexBox((0, 0)))
    assert ClassifyResult(False, reason="x") == ClassifyResult(False, reason="x")


def test_records_print_their_fields_in_order():
    assert repr(MatchResult(True, entries_checked=3)) == (
        "MatchResult(matched=True, first_mismatch=None, expected=None, found=None, entries_checked=3)"
    )
    assert repr(CenterReport(None, IndexBox((0, 0)))) == (
        "CenterReport(algebra=None, box=IndexBox(first=(0, 0), second=None), declared=[], extra_commuting=[])"
    )


@pytest.mark.parametrize("cls", [c for c in SIGNATURES if c not in (IndexBox, ProbeConfig)], ids=lambda c: c.__name__)
def test_records_are_unhashable(cls):
    required = [None] * sum(d is REQUIRED for _, d in SIGNATURES[cls])
    with pytest.raises(TypeError):
        hash(cls(*required))
