"""``modules._linear`` against the GaussianRational route it replaces.

``_linear(lead, root)`` builds lead * (t - root) straight from the integer
numerators of lead and root.  It must give the canonical storage that
``Polynomial._from_scalars((-lead * root, lead))`` gives, for Gaussian
values with numerators and denominators wider than 64 bits, for root 0,
and for leads and roots that are integers or real.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cartanfree import GaussianRational, Polynomial
from cartanfree.modules import _linear

wide_ints = st.one_of(st.integers(-9, 9), st.integers(-(2**100), 2**100))
denominators = st.one_of(st.integers(1, 9), st.integers(2**64, 2**70))
fractions = st.one_of(st.builds(Fraction, wide_ints), st.builds(Fraction, wide_ints, denominators))
gaussians = st.builds(GaussianRational, fractions, fractions)
leads = gaussians.filter(bool)
roots = st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, fractions), gaussians)


def _storage(p: Polynomial) -> tuple:
    return p._re, p._im, p._den


@settings(deadline=None)
@given(leads, roots)
def test_linear_matches_the_scalar_route(lead, root):
    got = _linear(lead, root)
    assert _storage(got) == _storage(Polynomial._from_scalars((-lead * root, lead)))
    assert got.coeffs == (-lead * root, lead)
    assert type(got._re) is tuple and type(got._im) is tuple


@given(leads)
def test_root_zero_is_lead_times_t(lead):
    assert _storage(_linear(lead, GaussianRational(0))) == _storage(Polynomial._from_scalars((GaussianRational(0), lead)))


def test_wide_gaussian_example():
    lead = GaussianRational(Fraction(2**80 + 1, 3**50), Fraction(-(2**70), 7))
    root = GaussianRational(Fraction(5, 2**66), Fraction(3**45, 11))
    assert _storage(_linear(lead, root)) == _storage(Polynomial._from_scalars((-lead * root, lead)))
