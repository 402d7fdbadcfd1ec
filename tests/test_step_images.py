"""Slot images built by one linear step, against ``act_basis`` on t^e.

``_OperatorColumns`` gets g . 1 from the slot spec's ``act_basis`` and every
higher image from g . t^e = (t - s_g) * (g . t^(e-1)), one multiply by a
linear factor per exponent.  For every box symbol and every e <= D, asked
in a random order so that the table fills from any starting exponent, the
image must equal ``slot_spec.act_basis(g, t^e)`` in canonical storage.
The families cover Gaussian lambda, Block shifts m*q with rational q,
Block(-1) with a constant beta row, and the factors of tensor products;
``act_basis`` runs exactly once per (slot, generator).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import (
    IndexBox,
    L,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    TensorOmega,
    scalar,
)
from cartanfree.analysis import _OperatorColumns
from cartanfree.linalg import VectorWindow
from cartanfree.polynomials import _t_power

LAMBDAS = ("1i", 2, "1/2", -1, "1+1i")
ALPHAS = (0, 1, "-1/2", "2i")


@st.composite
def probe_specs(draw):
    lam, mu = draw(st.sampled_from(LAMBDAS)), draw(st.sampled_from(LAMBDAS))
    alpha = draw(st.sampled_from(ALPHAS))
    kind = draw(st.sampled_from(("vir", "loop", "block", "hv", "tensor")))
    if kind == "vir":
        return OmegaVir(lam, alpha), IndexBox((-3, 3))
    if kind == "loop":
        return OmegaLoop(lam, mu, alpha), IndexBox((-2, 2), (-2, 2))
    if kind == "block":
        q = draw(st.sampled_from(("1/2", "-3/2", 2)))
        return OmegaBlock(q, lam, alpha), IndexBox((-3, 3), (0, 2))
    if kind == "hv":
        beta = draw(st.sampled_from((2, "1/3", "1i")))
        return OmegaBlockHV(lam, alpha, beta), IndexBox((-3, 3), (0, 2))
    factors = draw(st.lists(st.tuples(st.sampled_from(LAMBDAS), st.sampled_from(LAMBDAS), st.sampled_from(ALPHAS)),
                            min_size=2, max_size=3))
    return TensorOmega(factors), IndexBox((-1, 1), (-1, 1))


@settings(deadline=None, max_examples=60)
@given(probe_specs(), st.integers(1, 10), st.data())
def test_step_images_equal_act_basis(drawn, D, data):
    spec, box = drawn
    columns = _OperatorColumns(spec, VectorWindow(D, spec.nvars))
    syms = spec.algebra.symbols_in_box(box)
    order = data.draw(st.permutations(range(D + 1)))
    calls = []
    for slot, slot_spec in enumerate(spec._slots()):
        real = type(slot_spec).act_basis

        def counting(sym, f, slot=slot, slot_spec=slot_spec, real=real):
            calls.append((slot, sym))
            return real(slot_spec, sym, f)

        slot_spec.act_basis = counting
        for g in syms:
            for e in order:
                # == compares the canonical integer storage
                assert columns._slot_image(slot, slot_spec, g, e) == real(slot_spec, g, _t_power(e)), (slot_spec, g, e)
        del slot_spec.act_basis
    assert sorted(calls) == sorted({(s, g) for s in range(spec.nvars) for g in syms})
    assert set(columns._slot_images) == {(s, g, e) for s in range(spec.nvars) for g in syms for e in range(D + 1)}


def test_rational_block_shift_step():
    # Block(-3/2): L(1,0) shifts by -3/2, so each step multiplies by t + 3/2
    spec = OmegaBlock("-3/2", 2, 1)
    g = L(1, 0)
    columns = _OperatorColumns(spec, VectorWindow(6))
    assert columns._slot_image(0, spec, g, 6) == spec.act_basis(g, _t_power(6))
    assert columns._steps[g] == (0, 0, 1, 3, 0, 2, 0, 2)  # (3 + 2t)/2 = t + 3/2
    one = spec.act_basis(g, _t_power(0))
    assert columns._slot_image(0, spec, g, 1) == one * _t_power(1) + one * scalar("3/2")
