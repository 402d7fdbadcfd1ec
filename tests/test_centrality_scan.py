"""`centrality_check` against the bracket of elements, on every centre case of test_analysis.

`centrality_check` decides through `algebras._first_noncommuting`, which
sums c_z * `bracket_pairs(z, x)` per result symbol and builds no element;
`center_report` runs its candidates through the same scan.  The reference
here is the scan the check made before: `AlgebraElement.bracket` with each
box symbol in turn, the first nonzero bracket giving the witness.  Elements
are every box symbol and a few sums of two of them with non-unit
coefficients.  `ShadowVirasoro` brackets L(2) like 2*L(1), so its
2*L(1) - L(2) commutes with everything while L(1) + L(2) does not: only
the weighted per-symbol sum tells them apart.
"""

import pytest

from cartanfree import (
    VIRASORO,
    AlgebraElement,
    IndexBox,
    L,
    Virasoro,
    centrality_check,
    scalar,
)
from cartanfree.scalars import ONE
from test_analysis import CENTRE_CASES


def reference(algebra, elem, box):
    """(central, witness) from AlgebraElement.bracket over the box symbols."""
    for x in algebra.symbols_in_box(box):
        b = elem.bracket(AlgebraElement._raw(algebra, {x: ONE}))
        if not b.is_zero:
            return False, f"[{elem}, {x}] = {b}"
    return True, None


def elements(algebra, box):
    syms = algebra.symbols_in_box(box)
    out = [AlgebraElement(algebra, {s: 1}) for s in syms]
    for a, b in zip(syms[::3], syms[1::3]):
        out.append(AlgebraElement(algebra, {a: scalar("2/3"), b: scalar("-1+1i")}))
    return out


@pytest.mark.parametrize("algebra,box", [c[1:] for c in CENTRE_CASES], ids=[c[0] for c in CENTRE_CASES])
def test_agrees_with_the_element_bracket(algebra, box):
    for elem in elements(algebra, box):
        res = centrality_check(algebra, elem, box)
        assert (res.central, res.witness) == reference(algebra, elem, box), str(elem)


class ShadowVirasoro(Virasoro):
    """Virasoro whose L(2) brackets like 2*L(1) (not a Lie algebra; only the scan's sums matter)."""

    def bracket_pairs(self, x, y):
        if x == L(2):
            return tuple((s, c * 2) for s, c in super().bracket_pairs(L(1), y))
        return super().bracket_pairs(x, y)


@pytest.mark.parametrize("coeffs,central", [((2, -1), True), ((1, 1), False), ((1, 2), False)])
def test_coefficients_weigh_the_terms(coeffs, central):
    algebra, box = ShadowVirasoro(), IndexBox((-3, 3))
    elem = AlgebraElement(algebra, {L(1): coeffs[0], L(2): coeffs[1]})
    res = centrality_check(algebra, elem, box)
    assert res.central == central
    assert (res.central, res.witness) == reference(algebra, elem, box)
    # the real Virasoro algebra: no two terms meet, so neither element commutes
    assert not centrality_check(VIRASORO, AlgebraElement(VIRASORO, elem.terms), box).central
