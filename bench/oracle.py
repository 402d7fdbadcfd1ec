"""Known answers computed without cartanfree's own arithmetic.

Exact Q(i) values are (re, im) pairs of Fractions here.  The bracket and
action formulas are the paper's closed forms, written out independently
of the package, so a CLI result that round-trips through rendering and
parsing is compared with an answer the package did not produce.
"""

from __future__ import annotations

from fractions import Fraction

Q = tuple  # (Fraction re, Fraction im)

ZERO: Q = (Fraction(0), Fraction(0))
ONE: Q = (Fraction(1), Fraction(0))


def num(re, im=0) -> Q:
    return (Fraction(re), Fraction(im))


def of_scalar(x) -> Q:
    """A cartanfree GaussianRational as a pair (reads only its fields)."""
    return (Fraction(x.a, x.d), Fraction(x.b, x.d))


def add(x: Q, y: Q) -> Q:
    return (x[0] + y[0], x[1] + y[1])


def mul(x: Q, y: Q) -> Q:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def power(x: Q, n: int) -> Q:
    if n < 0:
        norm = x[0] * x[0] + x[1] * x[1]
        x, n = (x[0] / norm, -x[1] / norm), -n
    acc = ONE
    for _ in range(n):
        acc = mul(acc, x)
    return acc


def _accumulate(out: dict, key, value: Q) -> None:
    out[key] = add(out.get(key, ZERO), value)


# -- brackets -----------------------------------------------------------------


def _basis_bracket(kind: str, q: Q | None, x: tuple, y: tuple):
    """[x, y] of two basis symbols ('L', ...) / ('C', ...) as (symbol, coeff)."""
    if x[0] == "C" or y[0] == "C":
        return []
    out = []
    if kind == "virasoro":
        i, j = x[1], y[1]
        out.append((("L", i + j), num(j - i)))
        if i + j == 0:
            out.append((("C",), num(Fraction(i**3 - i, 12))))
    elif kind == "loop":
        (i, j), (k, l) = x[1:], y[1:]
        out.append((("L", i + k, j + l), num(k - i)))
        if i + k == 0:
            out.append((("C", j + l), num(Fraction(i**3 - i, 12))))
    else:  # block: n(i+q) - m(j+q) = (n*i - m*j) + (n - m)*q
        (m, i), (n, j) = x[1:], y[1:]
        out.append((("L", m + n, i + j), add(num(n * i - m * j), mul(num(n - m), q))))
        if m + n == 0 and i == 0 and j == 0:
            out.append((("C",), num(Fraction(m**3 - m, 12))))
    return out


def bracket(kind: str, q: Q | None, xs: dict, ys: dict) -> dict:
    """[sum xs, sum ys] for elements given as {symbol: coeff} dicts."""
    out: dict = {}
    for x, cx in xs.items():
        for y, cy in ys.items():
            for s, c in _basis_bracket(kind, q, x, y):
                _accumulate(out, s, mul(mul(cx, cy), c))
    return {s: c for s, c in out.items() if c != ZERO}


# -- module actions -----------------------------------------------------------


def evaluate(coeffs: list, t: Q) -> Q:
    acc = ZERO
    for c in reversed(coeffs):
        acc = add(mul(acc, t), c)
    return acc


def act_at(kind: str, params: dict, terms: dict, coeffs: list, t: Q) -> Q:
    """(sum terms) . f evaluated at t, for the Virasoro or loop family.

    L(i) . f = lam^i (t - i*alpha) f(t - i);
    L(i,j) . f = lam^(i-j) mu^j (t - i*alpha) f(t - i); central symbols act as 0.
    """
    lam, alpha = params["lambda"], params["alpha"]
    total = ZERO
    for sym, c in terms.items():
        if sym[0] == "C":
            continue
        i = sym[1]
        if kind == "virasoro":
            scale = power(lam, i)
        else:
            scale = mul(power(lam, i - sym[2]), power(params["mu"], sym[2]))
        linear = add(t, mul(num(-i), alpha))
        value = evaluate(coeffs, add(t, num(-i)))
        total = add(total, mul(c, mul(scale, mul(linear, value))))
    return total


# -- counts -------------------------------------------------------------------


def table_size(algebra: str, q: Q | None, b: int) -> int:
    """Entries of the action table over the symmetric box of size b."""
    side = 2 * b + 1
    if algebra == "virasoro":
        return side + 1
    if algebra == "loop":
        return side * side + side
    excluded = 0  # Block(q) omits L(0, -2q) when -2q is a positive integer
    neg2q = -2 * q[0]
    if q[1] == 0 and neg2q.denominator == 1 and 1 <= neg2q <= b:
        excluded = 1
    return side * (b + 1) - excluded + 1


def declared_center(q: Q) -> set[str]:
    """Central generators BlockHat(q) declares: C, plus L(0,-q) if -q is a positive integer."""
    names = {"C"}
    neg_q = -q[0]
    if q[1] == 0 and neg_q.denominator == 1 and neg_q >= 1:
        names.add(f"L(0,{neg_q.numerator})")
    return names


def embedding_pairs(b: int) -> int:
    """Unordered pairs (with repeats) of L(-b..b) and C."""
    n = 2 * b + 2
    return n * (n + 1) // 2
