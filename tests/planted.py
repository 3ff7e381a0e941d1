"""Polynomials with planted rational roots, for tests."""

from fractions import Fraction

from wronski.realroots import UnivariatePolynomial, dmul


def from_roots(roots):
    """prod (d x - n) over the roots n / d: the monic product times a positive integer."""
    out = [1]
    for r in map(Fraction, roots):
        out = dmul(out, [-r.numerator, r.denominator])
    return UnivariatePolynomial(out)
