"""Machine-speed reference for the timed metrics.

The benchmark runs on shared machines whose speed drifts by a factor of
up to two in phases of 5 to 30 seconds, which no run of a few tens of
seconds can average out.  So a fixed reference task runs between every
two checks, and each check's time is rescaled by how long the reference
took around it:

    normalized = measured * NOMINAL_S / median(reference times near the check)

A normalized time is the time the check would take on a machine running
the reference in NOMINAL_S seconds.  The reference does not use
cartanfree, so any change to the package shows in full; only the
machine's drift is divided out.  The reference does the kind of work
cartanfree's exact arithmetic does (small objects, gcd normalization,
dict and tuple churn): a pure integer loop tracks the drift less well.
"""

from __future__ import annotations

import statistics
import time
from math import gcd

NOMINAL_S = 0.004  # the reference's median time on the 2-core VM the bounds were set on
WINDOW = 3  # reference times on each side of a check that enter its median


class _Triple:
    __slots__ = ("a", "b", "d")


def _reference() -> dict:
    acc: dict = {}
    for i in range(1, 3000):
        a, b, d = i * 7 + 3, i - 11, i % 13 + 1
        g = gcd(gcd(a, b), d)
        t = _Triple()
        t.a, t.b, t.d = a // g, b // g, d // g
        key = (i % 50, i % 7)
        prev = acc.get(key)
        acc[key] = t if prev is None else (prev, t)
    return acc


def measure() -> float:
    """Seconds the reference task takes now."""
    t0 = time.perf_counter()
    _reference()
    return time.perf_counter() - t0


def factor(refs: list[float]) -> float:
    """Scale from this stretch of the run to nominal speed."""
    return NOMINAL_S / statistics.median(refs)


def normalize(times: list[float], refs: list[float]) -> list[float]:
    """Rescale times[k], measured between refs[k] and refs[k + 1], to NOMINAL_S."""
    out = []
    for k, t in enumerate(times):
        near = refs[max(0, k + 1 - WINDOW): k + 1 + WINDOW]
        out.append(t * factor(near))
    return out
