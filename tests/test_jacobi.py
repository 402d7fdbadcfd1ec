"""Reports of the Jacobi sweep, pinned two ways.

Broken-bracket cases corrupt one structure constant of an algebra and pin
the full report: counts and every violation line, in order.  Differential
cases compare the sweep with a naive reference that rebuilds every
antisymmetry sum and cyclic sum from ``AlgebraElement.bracket``.  The two
Gaussian values of q give coefficients with denominators 2 and 3, and the
central terms (m^3 - m)/12 bring new ones partway through the sweep, so a
common denominator that is not kept exact shows up here.
"""

import pytest

from cartanfree import (
    Block,
    BlockHat,
    BlockTrunc,
    C,
    IndexBox,
    L,
    LOOP,
    VIRASORO,
    jacobi_check,
    scalar,
)
from cartanfree.algebras import AlgebraElement, LoopVirasoro, Virasoro
from cartanfree.scalars import ONE

GAUSSIAN_Q = ("1/2+1i", "2/3-1/3i")


class BrokenLoop(LoopVirasoro):
    """Loop-Virasoro with an extra 1/3*C(1) on [L(1,0), L(-1,1)]."""

    def bracket_pairs(self, x, y):
        out = super().bracket_pairs(x, y)
        if x == L(1, 0) and y == L(-1, 1):
            out += ((C(1), scalar("1/3")),)
        return out


class BrokenBlockHat(BlockHat):
    """BlockHat with every [L(2,i), L(-1,1)] coefficient scaled by 1+1/5i."""

    def bracket_pairs(self, x, y):
        out = super().bracket_pairs(x, y)
        if x[0] == "L" and x[1] == 2 and y == L(-1, 1):
            out = tuple((s, c * scalar("1+1/5i")) for s, c in out)
        return out


class BrokenVirasoro(Virasoro):
    """Virasoro with central term 5/2 (should be 2) on [L(3), L(-3)]."""

    def bracket_pairs(self, x, y):
        out = super().bracket_pairs(x, y)
        if x == L(3) and y == L(-3):
            out = tuple((s, scalar("5/2") if s == C() else c) for s, c in out)
        return out


def naive_jacobi(algebra, box):
    """(pairs, triples, violations) from element brackets, no shortcuts."""
    syms = algebra.symbols_in_box(box)
    elems = [AlgebraElement._raw(algebra, {s: ONE}) for s in syms]
    n = len(syms)
    pairs, triples, violations = 0, 0, []
    for a in range(n):
        x, ex = syms[a], elems[a]
        if not ex.bracket(ex).is_zero:
            violations.append(f"[{x},{x}] != 0")
        for b in range(a + 1, n):
            y, ey = syms[b], elems[b]
            pairs += 1
            if not (ex.bracket(ey) + ey.bracket(ex)).is_zero:
                violations.append(f"[{x},{y}] + [{y},{x}] != 0")
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                ex, ey, ez = elems[a], elems[b], elems[c]
                total = (
                    ex.bracket(ey).bracket(ez)
                    + ey.bracket(ez).bracket(ex)
                    + ez.bracket(ex).bracket(ey)
                )
                triples += 1
                if not total.is_zero:
                    violations.append(f"jacobi({syms[a]},{syms[b]},{syms[c]}) = {total}")
    return pairs, triples, violations


def report_tuple(report):
    return report.pairs_checked, report.triples_checked, report.violations


class TestBrokenBrackets:
    def test_loop_extra_central_term(self):
        report = jacobi_check(BrokenLoop(), IndexBox((-2, 2), (-1, 1)))
        assert report_tuple(report) == (153, 816, [
            "[L(-1,1),L(1,0)] + [L(1,0),L(-1,1)] != 0",
            "jacobi(L(-1,-1),L(-1,1),L(2,1)) = -1*C(1)",
            "jacobi(L(-1,0),L(-1,1),L(2,0)) = -1*C(1)",
            "jacobi(L(-1,1),L(0,-1),L(1,1)) = 1/3*C(1)",
            "jacobi(L(-1,1),L(0,0),L(1,0)) = 1/3*C(1)",
            "jacobi(L(-1,1),L(0,1),L(1,-1)) = 1/3*C(1)",
        ])

    def test_block_hat_scaled_row(self):
        report = jacobi_check(BrokenBlockHat(scalar("1/2+1i")), IndexBox((-2, 2), (0, 2)))
        assert report_tuple(report) == (120, 560, [
            "[L(-1,1),L(2,0)] + [L(2,0),L(-1,1)] != 0",
            "[L(-1,1),L(2,1)] + [L(2,1),L(-1,1)] != 0",
            "[L(-1,1),L(2,2)] + [L(2,2),L(-1,1)] != 0",
            "jacobi(L(-1,1),L(-1,2),L(2,0)) = -19/5+8/5i*L(0,3)",
            "jacobi(L(-1,1),L(-1,2),L(2,1)) = -24/5+33/10i*L(0,4)",
            "jacobi(L(-1,1),L(-1,2),L(2,2)) = -29/5+27/5i*L(0,5)",
            "jacobi(L(-1,1),L(0,0),L(2,0)) = 1+1/4i*L(1,1)",
            "jacobi(L(-1,1),L(0,0),L(2,1)) = 6/5+3/20i*L(1,2)",
            "jacobi(L(-1,1),L(0,0),L(2,2)) = 7/5+1/20i*L(1,3)",
            "jacobi(L(-1,1),L(0,1),L(2,0)) = 2-21/20i*L(1,2)",
            "jacobi(L(-1,1),L(0,1),L(2,1)) = 11/5-27/20i*L(1,3)",
            "jacobi(L(-1,1),L(0,1),L(2,2)) = 12/5-33/20i*L(1,4)",
            "jacobi(L(-1,1),L(0,2),L(2,0)) = 3-63/20i*L(1,3)",
            "jacobi(L(-1,1),L(0,2),L(2,1)) = 16/5-73/20i*L(1,4)",
            "jacobi(L(-1,1),L(0,2),L(2,2)) = 17/5-83/20i*L(1,5)",
            "jacobi(L(-1,1),L(1,0),L(1,1)) = -3/5+9/10i*L(1,2)",
            "jacobi(L(-1,1),L(1,0),L(1,2)) = -6/5+11/5i*L(1,3)",
            "jacobi(L(-1,1),L(1,0),L(2,0)) = 3/5-7/10i*L(2,1)",
            "jacobi(L(-1,1),L(1,0),L(2,1)) = 6/5-9/5i*L(2,2)",
            "jacobi(L(-1,1),L(1,0),L(2,2)) = 9/5-33/10i*L(2,3)",
            "jacobi(L(-1,1),L(1,1),L(1,2)) = -3/5+13/10i*L(1,4)",
            "jacobi(L(-1,1),L(1,1),L(2,1)) = 3/5-9/10i*L(2,3)",
            "jacobi(L(-1,1),L(1,1),L(2,2)) = 6/5-11/5i*L(2,4)",
            "jacobi(L(-1,1),L(1,2),L(2,0)) = -3/5+7/10i*L(2,3)",
            "jacobi(L(-1,1),L(1,2),L(2,2)) = 3/5-11/10i*L(2,5)",
            "jacobi(L(-1,1),L(2,0),L(2,1)) = 18/5-69/20i*L(3,2)",
            "jacobi(L(-1,1),L(2,0),L(2,2)) = 5-131/20i*L(3,3)",
            "jacobi(L(-1,1),L(2,1),L(2,2)) = 22/5-109/20i*L(3,4)",
        ])

    def test_virasoro_wrong_central_term(self):
        report = jacobi_check(BrokenVirasoro(), IndexBox((-4, 4)))
        assert report_tuple(report) == (45, 120, [
            "[L(-3),L(3)] + [L(3),L(-3)] != 0",
            "jacobi(L(-3),L(-1),L(4)) = 5/2*C",
            "jacobi(L(-3),L(0),L(3)) = 3/2*C",
            "jacobi(L(-3),L(1),L(2)) = 1/2*C",
        ])

    @pytest.mark.parametrize("algebra,box", [
        (BrokenLoop(), IndexBox((-2, 2), (-1, 1))),
        (BrokenBlockHat(scalar("1/2+1i")), IndexBox((-2, 2), (0, 2))),
        (BrokenVirasoro(), IndexBox((-4, 4))),
    ], ids=["loop", "block-hat", "virasoro"])
    def test_agrees_with_naive_reference(self, algebra, box):
        assert report_tuple(jacobi_check(algebra, box)) == naive_jacobi(algebra, box)


def _differential_cases():
    cases = [
        ("virasoro", VIRASORO, IndexBox((-4, 4))),
        ("loop", LOOP, IndexBox((-2, 2), (-1, 1))),
    ]
    for q in GAUSSIAN_Q:
        cases += [
            (f"block-hat q={q}", BlockHat(scalar(q)), IndexBox((-2, 2), (0, 2))),
            # the first row, of L(-3,0), brings only q's denominator; the
            # central term -1/2 of [L(-2,0), L(2,0)] arrives in a later row
            (f"block q={q}", Block(scalar(q)), IndexBox((-3, 2), (0, 1))),
            (f"block-trunc q={q}", BlockTrunc(scalar(q), 1, 2), IndexBox((-2, 2), (0, 3))),
        ]
    # a derived algebra with an omitted symbol, L(0,1) for q = -1/2
    cases.append(("block q=-1/2", Block(scalar("-1/2")), IndexBox((-2, 2), (0, 2))))
    return cases


DIFFERENTIAL_CASES = _differential_cases()


@pytest.mark.parametrize(
    "algebra,box", [c[1:] for c in DIFFERENTIAL_CASES], ids=[c[0] for c in DIFFERENTIAL_CASES]
)
def test_sweep_matches_naive_reference(algebra, box):
    report = jacobi_check(algebra, box)
    assert report.ok
    assert report_tuple(report) == naive_jacobi(algebra, box)
