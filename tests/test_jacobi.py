"""Reports of the Jacobi sweep, pinned two ways.

Broken-bracket cases corrupt one structure constant of an algebra and pin
the full report: counts and every violation line, in order.  Differential
cases compare the sweep with a naive reference that rebuilds every
antisymmetry sum and cyclic sum from ``AlgebraElement.bracket``.  The two
Gaussian values of q give coefficients with denominators 2 and 3, and the
central terms (m^3 - m)/12 bring new ones partway through the sweep, so a
common denominator that is not kept exact shows up here.
"""

import tracemalloc
from fractions import Fraction

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


class LiveCentreLoop(LoopVirasoro):
    """Loop-Virasoro with a one-sided [C(1), L(1,0)] = L(1,1).

    C(1)'s column stays empty, so only its row at a box column makes it live.
    """

    def bracket_pairs(self, x, y):
        if x == C(1) and y == L(1, 0):
            return ((L(1, 1), ONE),)
        return super().bracket_pairs(x, y)


class ReachedColumnVirasoro(Virasoro):
    """Virasoro with [L(3), C] = L(1); a box lists C last, or first.

    At box -2..2, C's row is empty and so is its column in every box row;
    L(3) is a reached row ([L(1), L(2)] = L(3)), so only that row's entry
    in C's column makes C live.  For the triple of L(1), L(2) and C, only
    [L(1), L(2)] is nonempty: it is the triple's first bracket when C is
    last, and its second when C is first.
    """

    def __init__(self, c_first: bool = False):
        self.c_first = c_first

    def symbols_in_box(self, box):
        syms = super().symbols_in_box(box)
        return [syms[-1]] + syms[:-1] if self.c_first else syms

    def bracket_pairs(self, x, y):
        if x == L(3) and y == C():
            return ((L(1), ONE),)
        return super().bracket_pairs(x, y)


class ZxOnlyBlockHat(BlockHat):
    """BlockHat(-1), whose L(0,1) is central, with a one-sided [L(0,3), L(0,1)] = L(0,4).

    For x = L(-1,i), y = L(0,1), z = L(1,3-i) the brackets [x,y] and [y,z]
    are empty, so the cyclic sum is [[z,x],y] alone.
    """

    def bracket_pairs(self, x, y):
        if x == L(0, 3) and y == L(0, 1):
            return ((L(0, 4), ONE),)
        return super().bracket_pairs(x, y)


class RescaledVirasoro(Virasoro):
    """Virasoro in the basis c_i*L(i), with c_3 = 2, c_5 = 3 and every other c_i = 1.

    [c_i L(i), c_j L(j)] = c_i c_j / c_{i+j} (j - i) c_{i+j} L(i+j) plus the
    central term, so this is still a Lie algebra.  At box -2..2 the first
    row brings the denominator 2 on the second term of
    [L(-2), L(2)] = 4*L(0) - 1/2*C, after entries of that row are stored;
    [L(1), L(2)] = 1/2*L(3) reaches L(3), and only its row brings 3:
    [L(3), L(2)] = -2/3*L(5).  ``broken`` adds 1/3 to [L(3), L(-1)], which
    the cyclic sum of L(-1), L(1), L(2) reads.
    """

    SCALE = {3: 2, 5: 3}

    def __init__(self, broken: bool = False):
        self.broken = broken

    def bracket_pairs(self, x, y):
        out = super().bracket_pairs(x, y)
        if x[0] == "C" or y[0] == "C":
            return out
        cx, cy = self.SCALE.get(x[1], 1), self.SCALE.get(y[1], 1)
        out = tuple(
            (s, c * scalar(Fraction(cx * cy, 1 if s[0] == "C" else self.SCALE.get(s[1], 1))))
            for s, c in out
        )
        if self.broken and x == L(3) and y == L(-1):
            out = tuple((s, c + scalar("1/3")) for s, c in out)
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


class TestCommonDenominator:
    """A denominator first met in a reached row rescales every stored entry once."""

    BOX = IndexBox((-2, 2))

    def test_table_meets_2_then_3(self):
        algebra = RescaledVirasoro()
        assert dict(algebra.bracket_pairs(L(-2), L(2))) == {L(0): 4, C(): scalar("-1/2")}
        assert dict(algebra.bracket_pairs(L(1), L(2))) == {L(3): scalar("1/2")}
        assert dict(algebra.bracket_pairs(L(3), L(2))) == {L(5): scalar("-2/3")}
        for x in algebra.symbols_in_box(self.BOX):
            for y in algebra.symbols_in_box(self.BOX):
                assert all(c.d in (1, 2) for _, c in algebra.bracket_pairs(x, y))

    def test_correct_constants(self):
        algebra = RescaledVirasoro()
        report = jacobi_check(algebra, self.BOX)
        assert report.ok
        assert report_tuple(report) == naive_jacobi(algebra, self.BOX)
        # six box rows and the reached rows of L(-3) and L(3), at six box columns
        assert (report.brackets_evaluated, report.sums_evaluated) == (48, 10)

    def test_broken_coefficient_in_a_reached_row(self):
        algebra = RescaledVirasoro(broken=True)
        report = jacobi_check(algebra, self.BOX)
        assert report_tuple(report) == naive_jacobi(algebra, self.BOX)
        assert report.violations == ["jacobi(L(-1),L(1),L(2)) = 1/6*L(2)"]
        assert (report.brackets_evaluated, report.sums_evaluated) == (48, 10)


def test_equal_entries_are_stored_once():
    # the traced peak of the loop box-4 sweep is about 0.85 MB with equal
    # entries shared, and about 1.8 MB when each entry is its own tuple
    box = IndexBox((-4, 4), (-4, 4))
    tracemalloc.start()
    try:
        report = jacobi_check(LOOP, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.brackets_evaluated == 24480
    assert peak <= 1.5 * 2**20


class TestSkippedSums:
    """The triple pass forms no sum through a dead symbol or over three empty brackets.

    A symbol with any table entry is live, and a triple with any nonempty
    bracket gets its sum.
    """

    def test_centre_live_by_its_row(self):
        algebra, box = LiveCentreLoop(), IndexBox((-2, 2), (-1, 1))
        report = jacobi_check(algebra, box)
        assert report_tuple(report) == naive_jacobi(algebra, box)
        # the last three sums pass through C(1) directly, the two before it
        # through the C(1) term of [L(2,1-l), L(-2,l)]
        assert report.violations == [
            "[L(1,0),C(1)] + [C(1),L(1,0)] != 0",
            "jacobi(L(-2,0),L(1,0),L(2,1)) = 1/2*L(1,1)",
            "jacobi(L(-2,1),L(1,0),L(2,0)) = 1/2*L(1,1)",
            "jacobi(L(1,0),L(2,-1),C(1)) = L(3,0)",
            "jacobi(L(1,0),L(2,0),C(1)) = L(3,1)",
            "jacobi(L(1,0),L(2,1),C(1)) = L(3,2)",
        ]

    @pytest.mark.parametrize("c_first,violation", [
        (False, "jacobi(L(1),L(2),C) = L(1)"),
        (True, "jacobi(C,L(1),L(2)) = L(1)"),
    ], ids=["c-last", "c-first"])
    def test_centre_live_by_a_reached_row(self, c_first, violation):
        algebra, box = ReachedColumnVirasoro(c_first), IndexBox((-2, 2))
        report = jacobi_check(algebra, box)
        assert report_tuple(report) == naive_jacobi(algebra, box)
        assert report.violations == [violation]

    def test_sum_from_the_last_bracket_alone(self):
        algebra, box = ZxOnlyBlockHat(scalar(-1)), IndexBox((-1, 1), (0, 3))
        report = jacobi_check(algebra, box)
        assert report_tuple(report) == naive_jacobi(algebra, box)
        assert report.violations == [
            "[L(0,1),L(0,3)] + [L(0,3),L(0,1)] != 0",
            "jacobi(L(-1,0),L(0,1),L(1,3)) = -1*L(0,4)",
            "jacobi(L(-1,1),L(0,1),L(1,2)) = -1*L(0,4)",
            "jacobi(L(-1,2),L(0,1),L(1,1)) = -1*L(0,4)",
            "jacobi(L(-1,3),L(0,1),L(1,0)) = -1*L(0,4)",
        ]

    def test_loop_box_4_counts(self):
        report = jacobi_check(LOOP, IndexBox((-4, 4), (-4, 4)))
        assert report.ok
        assert report.triples_checked == 117480
        # the nine C(j) are dead: at most C(81, 3) sums over the L(i,j)
        assert 0 < report.sums_evaluated <= 85320
        assert report.as_dict()["sums_evaluated"] == report.sums_evaluated

    def test_virasoro_box_4_counts(self):
        report = jacobi_check(VIRASORO, IndexBox((-4, 4)))
        assert report.ok and report.triples_checked == 120
        # C is dead: at most C(9, 3) sums over L(-4)..L(4)
        assert 0 < report.sums_evaluated <= 84
