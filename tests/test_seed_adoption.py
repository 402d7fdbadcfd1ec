"""Seeds adopt a known closure, and a monomial shifts by one binomial row.

A probe closes its seeds in order; a seed b whose closure must equal an
earlier seed a's (b lies in closure(a), and a turns up in b's staged
span) takes closure(a) and stops.  These tests hold every probe closure
to an independent ``_closure`` run of the same seed under all box
symbols with no known closures, pin when a seed adopts, and check the
``stats`` block.  The last test draws monomials t^e with e <= 40 and
Gaussian shifts with denominators, and compares the rank-one kernel's
binomial row with (t - c)^e * entry multiplied out by ``Polynomial.__mul__``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cartanfree.analysis as analysis
from cartanfree import (
    DEFAULT_SEEDS,
    GaussianRational,
    IndexBox,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    P_ONE,
    Polynomial,
    ProbeConfig,
    T,
    TensorOmega,
    constant,
    scalar,
    simplicity_probe,
)
from cartanfree.analysis import _OperatorColumns, _closure
from cartanfree.cli import main
from cartanfree.errors import MaxRoundsExceededError
from cartanfree.linalg import VectorWindow
from cartanfree.polynomials import _t_power, rank_one_rule

BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))

# (label, spec, box, window degree, seeds)
CASES = [
    ("loop", OmegaLoop(2, 3, 1), BOX2_LOOP, 8, DEFAULT_SEEDS),
    ("loop-alpha0", OmegaLoop(scalar("1/2"), 3, 0), BOX2_LOOP, 8, DEFAULT_SEEDS),
    ("block", OmegaBlock(scalar("-3/2"), 2, 1), BOX2_BLOCK, 8, DEFAULT_SEEDS),
    ("block-alpha0", OmegaBlock(2, scalar("1i"), 0), BOX2_BLOCK, 8, DEFAULT_SEEDS),
    ("hv", OmegaBlockHV(2, 1, 2), BOX2_BLOCK, 8, DEFAULT_SEEDS),
    ("hv-alpha0", OmegaBlockHV(2, 0, 0), BOX2_BLOCK, 8, DEFAULT_SEEDS),
    ("tensor-distinct", TensorOmega([(2, 1, 1), (2, 3, 1)]), BOX2_LOOP, 3, ("1", "t1", "t1*t2 + 1")),
    ("tensor-repeated", TensorOmega([(2, 1, 1), (2, 1, 0)]), BOX2_LOOP, 3, ("1", "t1", "t1*t2 + 1")),
]
IDS = [c[0] for c in CASES]


@pytest.mark.parametrize("label,spec,box,D,seeds", CASES, ids=IDS)
def test_every_probe_closure_equals_an_independent_one(monkeypatch, label, spec, box, D, seeds):
    closed = []  # (seed, closure) of every seed the probe closed
    real = analysis._closure

    def recording(seed, *args, **kwargs):
        basis = real(seed, *args, **kwargs)
        closed.append((seed, basis))
        return basis

    monkeypatch.setattr(analysis, "_closure", recording)
    verdict = simplicity_probe(spec, ProbeConfig(box=box, max_degree=D, seeds=seeds))
    monkeypatch.undo()
    assert len(closed) == len(seeds)
    window = VectorWindow(D, spec.nvars)
    syms = spec.algebra.symbols_in_box(box)
    worst = None
    for seed, basis in closed:
        alone = _closure(seed, syms, _OperatorColumns(spec, window).image, window)
        assert basis.rows == alone.rows and basis.pivots == alone.pivots, seed
        assert verdict.seed_dims[str(seed)] == alone.rank
        if worst is None or alone.rank < worst.rank:
            worst = alone
    assert verdict.dim == worst.rank
    assert verdict.fills == (worst.rank == window.dim)
    if not verdict.fills:
        assert verdict.witness == str(window.missing_monomial(worst))


def test_seed_t_adopts_the_closure_of_1_after_one_round():
    spec = OmegaLoop(2, 3, 1)
    window = VectorWindow(20)
    ops = spec.probe_operators(spec.algebra.symbols_in_box(BOX2_LOOP))
    act = _OperatorColumns(spec, window).apply
    full = _closure(P_ONE, ops, act, window)
    assert full.rank == window.dim
    known = [(window.ext_vector(P_ONE)[0], full)]
    with pytest.raises(MaxRoundsExceededError):  # not before the first round
        _closure(T, ops, act, window, 0, known)
    assert _closure(T, ops, act, window, 1, known) is full
    with pytest.raises(MaxRoundsExceededError):  # on its own, t needs more rounds
        _closure(T, ops, act, window, 1)


@pytest.mark.parametrize(
    "spec,box,adopted",
    [
        (OmegaLoop(2, 3, 1), BOX2_LOOP, {"t": "1", "t^2 + 1": "1", "t^3 - t": "1"}),
        (OmegaLoop(2, 3, 0), BOX2_LOOP, {"t^2 + 1": "1", "t^3 - t": "t"}),  # two closures in full
        (OmegaBlockHV(2, 0, 0), BOX2_BLOCK, {"t^2 + 1": "1", "t^3 - t": "t"}),
    ],
)
def test_stats_name_the_adopted_closures(spec, box, adopted):
    verdict = simplicity_probe(spec, ProbeConfig(box=box, max_degree=12))
    assert verdict.stats["adopted"] == adopted
    assert verdict.stats["operators"] == {"count": 5, "one_slot": 5}
    d = verdict.as_dict()
    assert d["stats"] == verdict.stats
    assert list(d)[-1] == "stats"  # the block follows every existing key


def test_stats_count_tensor_operators():
    verdict = simplicity_probe(TensorOmega([(2, 1, 1), (2, 1, 1)]), ProbeConfig(box=BOX2_LOOP, max_degree=3))
    assert verdict.stats["operators"] == {"count": 5, "one_slot": 0}
    verdict = simplicity_probe(
        TensorOmega([(2, 1, 1), (3, 1, 1), (2, 3, 2)]),
        ProbeConfig(box=IndexBox((-1, 1), (-1, 1)), max_degree=2, seeds=("1", "t2")),
    )
    assert verdict.stats["operators"] == {"count": 9, "one_slot": 9}
    assert verdict.stats["adopted"] == {"t2": "1"}


HALF_PLUS_I = GaussianRational("1/2", 1)
small = st.integers(-6, 6)
shifts = st.one_of(
    st.builds(lambda m: HALF_PLUS_I * m, st.integers(-4, 4)),  # Block shifts m*q, q = 1/2 + i
    st.builds(GaussianRational, st.fractions(-5, 5, max_denominator=7), st.fractions(-5, 5, max_denominator=7)),
    st.builds(GaussianRational, small),
)
entries = st.one_of(
    st.builds(lambda a, b: Polynomial([GaussianRational(a, b)]), small, small),
    st.builds(lambda a, r: constant(GaussianRational(a, 1)) * (T - constant(r)), small, shifts),
).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), shifts, entries, st.builds(GaussianRational, small, small).filter(bool))
def test_monomial_shift_matches_repeated_products(e, c, entry, coeff):
    f = _t_power(e).scale(coeff)
    got = f.apply_rank_one(rank_one_rule(c, entry))
    ref = constant(coeff)
    step = T - constant(c)
    for _ in range(e):
        ref = ref * step
    assert got == ref * entry


def test_cli_json_carries_the_stats_block(capsys):
    argv = ["probe", "simplicity", "--algebra", "loop", "--lambda", "2", "--mu", "3", "--alpha", "0", "--max-degree", "6"]
    assert main(argv + ["--json"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["stats"] == {"operators": {"count": 7, "one_slot": 7}, "adopted": {"t^2 + 1": "1", "t^3 - t": "t"}}
    assert main(argv) == 0
    assert "stats" not in capsys.readouterr().out  # the human output is the summary alone
