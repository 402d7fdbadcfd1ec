"""The rank-one action rule against the closed forms of the `modules` docstring.

Every family acts through one rule, x . f(t) = f(t - s_x) * (x . 1).  These
tests rebuild each family's closed form with plain ring operations (full
multiplication, addition, integer powers and substitution by Horner's
scheme), independent of the shift, mul_linear and scale kernels, and compare
it with act_basis on random box symbols and random vectors.
"""

import random
from fractions import Fraction

import pytest

from cartanfree import (
    Block,
    GaussianRational,
    IndexBox,
    MultiPolynomial,
    OmegaBlock,
    OmegaBlockHV,
    OmegaLoop,
    OmegaVir,
    P_ZERO,
    Polynomial,
    T,
    TensorOmega,
    constant,
    scalar,
)

SEEDS = range(4)
DRAWS = 12


def rand_scalar(rng: random.Random, nonzero: bool = False) -> GaussianRational:
    while True:
        x = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )
        if x or not nonzero:
            return x


def rand_poly(rng: random.Random) -> Polynomial:
    return Polynomial([rand_scalar(rng) for _ in range(rng.randint(1, 5))])


def substitute(f: Polynomial, c) -> Polynomial:
    """f(t - c) by Horner's scheme with full polynomial products."""
    lin = T - constant(c)
    out = P_ZERO
    for a in reversed(f.coeffs):
        out = out * lin + constant(a)
    return out


def linear(lead, root) -> Polynomial:
    """lead * (t - root) as a product of polynomials."""
    return constant(lead) * (T - constant(root))


def sample(rng: random.Random, syms: list):
    return [(rng.choice(syms), rand_poly(rng)) for _ in range(DRAWS)]


@pytest.mark.parametrize("seed", SEEDS)
def test_virasoro(seed):
    rng = random.Random(seed)
    lam, alpha = rand_scalar(rng, nonzero=True), rand_scalar(rng)
    spec = OmegaVir(lam, alpha)
    for sym, f in sample(rng, spec.algebra.symbols_in_box(IndexBox((-3, 3)))):
        if sym[0] == "C":
            expected = P_ZERO
        else:
            i = sym[1]
            expected = linear(lam**i, alpha * i) * substitute(f, i)
        assert spec.act_basis(sym, f) == expected, (spec, sym, f)


@pytest.mark.parametrize("seed", SEEDS)
def test_loop(seed):
    rng = random.Random(seed)
    lam, mu = rand_scalar(rng, nonzero=True), rand_scalar(rng, nonzero=True)
    alpha = rand_scalar(rng)
    spec = OmegaLoop(lam, mu, alpha)
    for sym, f in sample(rng, spec.algebra.symbols_in_box(IndexBox((-3, 3), (-2, 2)))):
        if sym[0] == "C":
            expected = P_ZERO
        else:
            i, j = sym[1], sym[2]
            expected = linear(lam ** (i - j) * mu**j, alpha * i) * substitute(f, i)
        assert spec.act_basis(sym, f) == expected, (spec, sym, f)


@pytest.mark.parametrize("q", [scalar(2), scalar("3/2"), scalar("-1/2"), scalar("1/2+1i")])
def test_block(q):
    rng = random.Random(str(q))
    lam, alpha = rand_scalar(rng, nonzero=True), rand_scalar(rng)
    spec = OmegaBlock(q, lam, alpha)
    for sym, f in sample(rng, Block(q).symbols_in_box(IndexBox((-3, 3), (0, 2)))):
        if sym[0] == "C" or sym[2] != 0:
            expected = P_ZERO
        else:
            m = sym[1]
            expected = linear(lam**m, q * m * alpha) * substitute(f, q * m)
        assert spec.act_basis(sym, f) == expected, (spec, sym, f)


@pytest.mark.parametrize("beta_zero", [False, True])
def test_block_minus_one(beta_zero):
    rng = random.Random(int(beta_zero))
    lam, alpha = rand_scalar(rng, nonzero=True), rand_scalar(rng)
    beta = scalar(0) if beta_zero else rand_scalar(rng, nonzero=True)
    spec = OmegaBlockHV(lam, alpha, beta)
    syms = Block(-1).symbols_in_box(IndexBox((-3, 3), (0, 3)))
    # every beta-row symbol is drawn too, besides the random sample
    beta_row = [(s, rand_poly(rng)) for s in syms if s[0] == "L" and s[2] == 1]
    for sym, f in sample(rng, syms) + beta_row:
        if sym[0] == "C" or sym[2] >= 2:
            expected = P_ZERO
        elif sym[2] == 1:
            m = sym[1]
            expected = constant(lam**m * beta) * substitute(f, -m)
        else:
            m = sym[1]
            expected = linear(lam**m, -m * alpha) * substitute(f, -m)
        assert spec.act_basis(sym, f) == expected, (spec, sym, f)


def substitute_slot(f: MultiPolynomial, k: int, c) -> MultiPolynomial:
    """f with t_k replaced by t_k - c, by expanding every monomial."""
    n = f.nvars
    out = MultiPolynomial(n)
    lin = MultiPolynomial.variable(n, k) - MultiPolynomial.constant(n, c)
    for exps, a in f.terms.items():
        term = MultiPolynomial.constant(n, a)
        for v, e in enumerate(exps):
            base = lin if v == k else MultiPolynomial.variable(n, v)
            for _ in range(e):
                term = term * base
        out = out + term
    return out


def rand_multi(rng: random.Random, nvars: int) -> MultiPolynomial:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[tuple(rng.randint(0, 3) for _ in range(nvars))] = rand_scalar(rng)
    return MultiPolynomial(nvars, terms)


@pytest.mark.parametrize("seed", SEEDS)
def test_two_factor_tensor(seed):
    rng = random.Random(seed)
    factors = [
        (rand_scalar(rng, nonzero=True), rand_scalar(rng, nonzero=True), rand_scalar(rng))
        for _ in range(2)
    ]
    spec = TensorOmega(factors)
    syms = spec.algebra.symbols_in_box(IndexBox((-2, 2), (-2, 2)))
    for _ in range(DRAWS):
        sym, f = rng.choice(syms), rand_multi(rng, 2)
        expected = MultiPolynomial(2)
        if sym[0] == "L":
            i, j = sym[1], sym[2]
            for k, (lam, mu, alpha) in enumerate(factors):
                factor = MultiPolynomial.constant(2, lam ** (i - j) * mu**j) * (
                    MultiPolynomial.variable(2, k) - MultiPolynomial.constant(2, alpha * i)
                )
                expected = expected + factor * substitute_slot(f, k, i)
        assert spec.act_basis(sym, f) == expected, (spec, sym, f)
