"""A monomial seed closes block by block where the probe operators split the slots.

Where every operator of a tensor probe acts within one block of tensor
slots, ``_closure`` closes a monomial seed that no earlier closure holds
in each block's own window and returns the tensor product of the block
closures.  These tests hold that product to the whole-window closure
under the same operators (same canonical rows and pivots) for distinct,
repeated and partly repeated (lambda, mu) pairs and alpha = 0 factors,
check that a probe's verdict is the one it gives with the blocks switched
off, that non-monomial seeds and seeds an earlier closure holds still
close on the whole window, that a separated probe builds no basis over
the whole staging window, and that the block views share the probe's
slot images, so ``act_basis`` runs once per (slot, generator, exponent).
"""

import pytest

import cartanfree.analysis as analysis
from cartanfree import IndexBox, OmegaLoop, ProbeConfig, TensorOmega, parse_polynomial, tensor_irreducibility_probe
from cartanfree.analysis import _OperatorColumns, _blocks, _closure
from cartanfree.linalg import SpanBasis, VectorWindow

BOX2 = IndexBox((-2, 2), (-2, 2))
BOX1 = IndexBox((-1, 1), (-1, 1))

# a box whose first index is 0 alone: one class, one operator per slot (multiplication by t_s)
BOX0 = IndexBox((0, 0), (-1, 1))

# (label, factors, box, blocks of the slots)
CASES = [
    ("first-index-0", [(2, 1, 1), (3, 1, 0)], BOX0, [(0,), (1,)]),
    ("two-distinct", [(2, 1, 1), (3, 1, 1)], BOX2, [(0,), (1,)]),
    ("alpha0-one", [(2, 1, 0), (3, 1, 1)], BOX2, [(0,), (1,)]),
    ("alpha0-both", [(2, 1, 0), (3, 1, 0)], BOX2, [(0,), (1,)]),
    ("gaussian", [("1i", 2, 1), ("1+1i", "1/2", "-1/2")], BOX2, [(0,), (1,)]),
    ("three-distinct", [(2, 1, 1), (3, 1, 1), (2, 3, 2)], BOX1, [(0,), (1,), (2,)]),
    ("three-alpha0", [(2, 1, 0), ("1/2", 2, 0), ("1i", 1, 1)], BOX1, [(0,), (1,), (2,)]),
    ("three-two-equal", [(2, 1, 1), (2, 3, 1), (2, 1, 0)], BOX1, [(0, 2), (1,)]),
    ("three-two-equal-alpha0", [(2, 1, 0), (3, 1, 1), (2, 1, 0)], BOX1, [(0, 2), (1,)]),
]
IDS = [c[0] for c in CASES]


def _setup(factors, box, D):
    spec = TensorOmega(factors)
    ops = spec.probe_operators(spec.algebra.symbols_in_box(box))
    window = VectorWindow(D, spec.nvars)
    columns = _OperatorColumns(spec, window)
    return spec, ops, window, columns, _blocks(ops, columns, window)


def _seeds(nvars):
    return ("1", "t1", "t2", "t1*t2", "t1^2*t3" if nvars == 3 else "t1^2*t2")


@pytest.mark.parametrize("D", [2, 3, 4, 5])
@pytest.mark.parametrize("label,factors,box,parts", CASES, ids=IDS)
def test_block_closure_equals_whole_window_closure(label, factors, box, parts, D):
    spec, ops, window, columns, blocks = _setup(factors, box, D)
    assert [slots for slots, *_ in blocks] == parts
    for text in _seeds(spec.nvars):
        seed = spec.vector(parse_polynomial(text))
        split = _closure(seed, ops, columns.apply, window, blocks=blocks)
        whole = _closure(seed, ops, _OperatorColumns(spec, window).apply, window)
        assert split.pivots == whole.pivots, text
        assert split.num_rows == whole.num_rows, text
        assert split.rows == whole.rows, text


@pytest.mark.parametrize(
    "spec,box",
    [
        (OmegaLoop(2, 3, 1), BOX2),
        (TensorOmega([(2, 1, 1), (2, 1, 1)]), BOX2),
        (TensorOmega([(2, 1, 0), (2, 1, 1), (2, 1, 1)]), BOX1),
        (TensorOmega([(2, 1, 1), (4, 2, 1)]), BOX2),  # mu/lambda equal: no slot separates
    ],
    ids=["one-variable", "two-repeated", "three-repeated", "equal-ratio"],
)
def test_one_block_gives_no_blocks(spec, box):
    ops = spec.probe_operators(spec.algebra.symbols_in_box(box))
    window = VectorWindow(3, spec.nvars)
    assert _blocks(ops, _OperatorColumns(spec, window), window) == []


def _probe_without_blocks(monkeypatch, spec, cfg):
    with monkeypatch.context() as m:
        m.setattr(analysis, "_blocks", lambda *args: [])
        return tensor_irreducibility_probe(spec, cfg)


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_proper_product_from_t1(monkeypatch, D):
    spec = TensorOmega([(2, 1, 0), (3, 1, 1)])
    cfg = ProbeConfig(box=BOX2, max_degree=D, seeds=("t1",))
    verdict = tensor_irreducibility_probe(spec, cfg)
    assert not verdict.fills
    assert verdict.dim == D * (D + 1)  # t1 C[t1] in slot 1, all of C[t2] in slot 2
    assert verdict.witness == "1"
    assert verdict.certificate == "invariant-certified"
    assert verdict.as_dict() == _probe_without_blocks(monkeypatch, spec, cfg).as_dict()


@pytest.mark.parametrize("label,factors,box,parts", CASES, ids=IDS)
@pytest.mark.parametrize("seeds", [("1",), ("t1",), ("t2", "1", "t1*t2 + 1"), ("t1*t2", "t1", "t2")])
def test_verdicts_equal_those_without_blocks(monkeypatch, label, factors, box, parts, seeds):
    spec = TensorOmega(factors)
    cfg = ProbeConfig(box=box, max_degree=3, seeds=seeds)
    assert tensor_irreducibility_probe(spec, cfg).as_dict() == _probe_without_blocks(monkeypatch, spec, cfg).as_dict()


def _record_bases(monkeypatch):
    """Per ``_closure`` call, the column counts of the SpanBases it built."""
    calls: list[tuple[str, list[int]]] = []
    real_closure = analysis._closure

    class Recording(SpanBasis):
        def __init__(self, ncols):
            super().__init__(ncols)
            if calls:
                calls[-1][1].append(ncols)

    def closure(seed, *args, **kwargs):
        calls.append((str(seed), []))
        return real_closure(seed, *args, **kwargs)

    monkeypatch.setattr(analysis, "SpanBasis", Recording)
    monkeypatch.setattr(analysis, "_closure", closure)
    return calls


def test_separated_probe_from_1_builds_no_whole_staging_basis(monkeypatch):
    spec = TensorOmega([(2, 1, 1), (3, 1, 1), (2, 3, 2)])
    window = VectorWindow(4, 3)
    calls = _record_bases(monkeypatch)
    verdict = tensor_irreducibility_probe(spec, ProbeConfig(box=BOX1, max_degree=4, seeds=("1",)))
    assert verdict.fills and verdict.dim == window.dim
    ((seed, sizes),) = calls
    assert window.ext_dim not in sizes
    assert sizes.count(VectorWindow(4).ext_dim) == 3  # one staging basis per one-slot block
    assert sizes[-1] == window.dim  # the product


@pytest.mark.parametrize(
    "seeds,adopted,whole",
    [
        (("t1*t2 + 1",), {}, {"t1*t2 + 1"}),  # not a monomial
        # closure(1) holds t1 and t2; t1 never reaches 1 (alpha = 0 in slot 1), so it closes in full
        (("1", "t1", "t2"), {"t2": "1"}, {"t1", "t2"}),
        (("t1", "t1*t2", "1"), {"t1*t2": "t1"}, {"t1*t2"}),  # closure(t1) holds t1*t2, not 1
    ],
)
def test_other_seeds_close_on_the_whole_window(monkeypatch, seeds, adopted, whole):
    spec = TensorOmega([(2, 1, 0), (3, 1, 1)])
    window = VectorWindow(3, 2)
    cfg = ProbeConfig(box=BOX2, max_degree=3, seeds=seeds)
    expected = _probe_without_blocks(monkeypatch, spec, cfg)
    calls = _record_bases(monkeypatch)
    verdict = tensor_irreducibility_probe(spec, cfg)
    assert verdict.stats["adopted"] == adopted == expected.stats["adopted"]
    assert verdict.as_dict() == expected.as_dict()
    for seed, sizes in calls:
        assert (window.ext_dim in sizes) == (seed in whole), seed


def test_act_basis_once_per_slot_generator_exponent(monkeypatch):
    calls: list = []
    real = OmegaLoop.act_basis

    def act_basis(self, sym, f):
        calls.append((id(self), sym, f.degree))
        return real(self, sym, f)

    spec = TensorOmega([(2, 1, 0), (3, 1, 1), (2, 3, 2)])
    # t1 closes block by block (its closure is proper), then t1*t2 + 1 on the whole window
    cfg = ProbeConfig(box=BOX1, max_degree=3, seeds=("t1", "t1*t2 + 1"))
    bases = _record_bases(monkeypatch)
    monkeypatch.setattr(OmegaLoop, "act_basis", act_basis)
    verdict = tensor_irreducibility_probe(spec, cfg)
    monkeypatch.setattr(OmegaLoop, "act_basis", real)
    window = VectorWindow(3, 3)
    assert [window.ext_dim in sizes for _, sizes in bases] == [False, True]
    assert verdict.seed_dims == {"t1": 3 * 16, "t1*t2 + 1": 64}
    # (the certificate sweep acts through TensorOmega.act_basis, not the factors')
    assert calls and len(calls) == len(set(calls))
