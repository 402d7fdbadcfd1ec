"""One table-vs-closed-form scan: `derive_parameters` compares entries through `match_template`.

Each perturbed loop, Virasoro and Block table below pins the whole
`Derivation.as_dict()`: the parameters, the violation string (the
constant-offset `e_j != 0` message on zero-row entries included), the
number of entries compared up to and including the first mismatch, and the
bracket constraints checked once every entry matches.  `MatchResult`
carries the same count.
"""

import pytest

from cartanfree import (
    C,
    IndexBox,
    L,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ONE,
    T,
    build_action_table,
    constant,
    derive_parameters,
    match_template,
    scalar,
)

BOX2_LOOP = IndexBox((-2, 2), (-2, 2))
BOX2_BLOCK = IndexBox((-2, 2), (0, 2))
BOX3_VIR = IndexBox((-3, 3))
LOOP_SPEC = (OmegaLoop, (2, 3, 1), BOX2_LOOP)
VIR_SPEC = (OmegaVir, (scalar("1/2+1i"), 2), BOX3_VIR)
BLOCK_SPEC = (OmegaBlock, (scalar("3/2"), 2, 1), BOX2_BLOCK)
HV_SPEC = (OmegaBlockHV, (2, 1, 2), BOX2_BLOCK)

OFFSET = "deviates from {} by the constant {}: offset {} != 0 is inconsistent with the bracket relations"

CASES = {
    # name: (spec, perturbed symbol, change, params, violation, entries_checked, bracket constraints)
    "loop-clean": (LOOP_SPEC, None, None, {"lambda": "2", "mu": "3", "alpha": "1"}, None, 30, 435),
    "vir-clean": (VIR_SPEC, None, None, {"lambda": "1/2+1i", "alpha": "2"}, None, 8, 28),
    "block-clean": (BLOCK_SPEC, None, None, {"q": "3/2", "lambda": "2", "alpha": "1"}, None, 16, 120),
    "block-hv-clean": (HV_SPEC, None, None, {"lambda": "2", "alpha": "1", "beta": "2"}, None, 15, 105),
    "loop-scaled": (
        LOOP_SPEC, L(2, 1), lambda e: e * 2, None, "entry L(2,1) = 12*t - 24 should be 6*t - 12", 24, 0,
    ),
    "loop-offset": (
        LOOP_SPEC, L(0, 1), lambda e: e + constant(5), None,
        "entry L(0,1) = 3/2*t + 5 " + OFFSET.format("3/2*t", 5, "e_1"), 14, 0,
    ),
    "loop-offset-0": (
        LOOP_SPEC, L(0, 0), lambda e: e + constant("1/2"), None,
        "entry L(0,0) = t + 1/2 " + OFFSET.format("t", "1/2", "e_0"), 13, 0,
    ),
    "loop-central": (LOOP_SPEC, C(0), lambda e: e + P_ONE, None, "entry C(0) = 1 should be 0", 28, 0),
    "loop-mu": (
        LOOP_SPEC, L(1, 1), lambda e: e * 2, None,
        "entry L(-2,-2) = 1/9*t + 2/9 should be 1/36*t + 1/18", 1, 0,
    ),
    "vir-offset": (
        VIR_SPEC, L(0), lambda e: e + P_ONE, None, "entry L(0) = t + 1 " + OFFSET.format("t", 1, "e"), 4, 0,
    ),
    "vir-scaled": (
        VIR_SPEC, L(-3), lambda e: e * 3, None,
        "entry L(-3) = -264/125+48/125i*t + -1584/125+288/125i should be -88/125+16/125i*t + -528/125+96/125i",
        1, 0,
    ),
    "block-offset": (
        BLOCK_SPEC, L(0, 2), lambda e: e + constant(4), None,
        "entry L(0,2) = 4 " + OFFSET.format(0, 4, "e_2"), 9, 0,
    ),
    "block-replaced": (
        BLOCK_SPEC, L(-2, 0), lambda e: T, None, "entry L(-2,0) = t should be 1/4*t + 3/4", 1, 0,
    ),
    "block-hv-constant": (HV_SPEC, L(2, 1), lambda e: e + P_ONE, None, "entry L(2,1) = 9 should be 8", 13, 0),
    "block-hv-offset": (
        HV_SPEC, L(0, 1), lambda e: e + P_ONE, None, "entry L(0,1) = 3 " + OFFSET.format(2, 1, "e_1"), 8, 0,
    ),
}


def table_of(spec, sym, change):
    family, args, box = spec
    table = build_action_table(family(*args), box)
    if sym is not None:
        table.entries[sym] = change(table.entries[sym])
    return table


@pytest.mark.parametrize("name", sorted(CASES))
def test_derivation_pinned(name):
    spec, sym, change, params, violation, entries, brackets = CASES[name]
    deriv = derive_parameters(table_of(spec, sym, change))
    assert deriv.as_dict() == {
        "check": "derive-parameters",
        "family": spec[0].family,
        "params": params,
        "violation": violation,
        "entries_checked": entries,
        "bracket_constraints_checked": brackets,
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_match_result_counts_the_entries_compared(name):
    spec, sym, change, _, _, entries, _ = CASES[name]
    family, args, _ = spec
    table = table_of(spec, sym, change)
    res = match_template(table, family(*args))
    if sym is None:
        assert res.matched and res.entries_checked == len(table.entries) == entries
    else:  # against the family the table was built from, the perturbed entry is the first mismatch
        assert not res.matched and res.first_mismatch == sym
        assert res.found == table.entries[sym] and res.expected == family(*args).entry(sym)
        if name != "loop-mu":  # that derivation reads another mu and stops at an earlier entry
            assert res.entries_checked == entries
