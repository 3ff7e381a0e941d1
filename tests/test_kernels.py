"""The packed Z[t] kernels against schoolbook references, and exponent-lattice
compression of the integer resultant against the Sylvester determinant."""

import random

import pytest

from wronski.polynomial import Polynomial
from wronski.realroots import (KRONECKER_MIN, _inverse_2adic, _kdiv_exact, dcompress,
                               ddiv_exact, dexpand, dexponent_gcd, dmul, dstrip)
from wronski.resultants import resultant, sylvester_resultant

SIZES = (1, 8, KRONECKER_MIN - 1, KRONECKER_MIN, KRONECKER_MIN + 1, 61, 130)


def school_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return dstrip(out)


def rand_poly(rng, n, bits, sparse=False):
    a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
    if sparse:
        a = [c if k % 3 == 0 else 0 for k, c in enumerate(a)]
    a[-1] = a[-1] or 1
    return a


@pytest.mark.parametrize("bits", [1, 40, 500])
@pytest.mark.parametrize("sparse", [False, True])
def test_dmul_matches_schoolbook(bits, sparse):
    rng = random.Random(bits * 2 + sparse)
    for na in SIZES:
        for nb in SIZES:
            a = rand_poly(rng, na, bits, sparse)
            b = rand_poly(rng, nb, rng.choice([1, bits]), sparse)
            assert dmul(a, b) == school_mul(a, b)
    a = rand_poly(rng, 70, bits)
    assert dmul(a, a) == school_mul(a, a)


def test_dmul_signs_and_cancellation():
    # all-negative operands, and a product whose top coefficients cancel
    a = [-(2 ** 500)] * 40
    assert dmul(a, a) == school_mul(a, a)
    up = [1] * 50
    alt = [(-1) ** k for k in range(50)]
    assert dmul(up, alt) == school_mul(up, alt)
    assert dmul([0] * 30, up) == []


@pytest.mark.parametrize("bits", [1, 40, 500])
@pytest.mark.parametrize("sparse", [False, True])
def test_ddiv_exact_matches_schoolbook(bits, sparse):
    rng = random.Random(1000 + bits * 2 + sparse)
    for nq in SIZES:
        for nb in SIZES:
            q = rand_poly(rng, nq, bits, sparse)
            b = rand_poly(rng, nb, rng.choice([1, bits]), sparse)
            assert ddiv_exact(school_mul(q, b), b) == q


@pytest.mark.parametrize("low", [
    [0, 0, 0],                 # b divisible by t^3
    [2 ** 40 * 3],             # b(2^w) divisible by a power of two
    [0, -(2 ** 7)],            # both
    [2 ** 600],                # low coefficient wider than the quotient's slot
])
def test_ddiv_exact_zero_and_even_low_coefficients(low):
    rng = random.Random(len(low))
    for n in (10, 40, 90):
        b = low + rand_poly(rng, n, 30)
        q = rand_poly(rng, n, 60)
        a = school_mul(q, b)
        assert ddiv_exact(a, b) == q
        assert ddiv_exact(school_mul([0, 0] + q, b), b) == [0, 0] + q
        if n >= KRONECKER_MIN:  # the packed path itself, not the schoolbook fallback
            assert _kdiv_exact(a, b) == q


def test_ddiv_exact_quotient_wider_than_dividend():
    # (t-1)^30 (t+1)^30 = (t^2-1)^30: the quotient's coefficients are as wide
    # as the dividend's, beyond the first slot width tried
    b, q = [1], [1]
    for _ in range(30):
        b = school_mul(b, [1, 1])
        q = school_mul(q, [-1, 1])
    assert ddiv_exact(school_mul(q, b), b) == q
    assert _kdiv_exact(school_mul(q, b), b) == q


def test_inverse_2adic():
    rng = random.Random(5)
    for nbits in (1, 63, 64, 65, 200, 4097):
        b = rng.getrandbits(nbits + 50) | 1
        assert b * _inverse_2adic(b, nbits) % 2 ** nbits == 1


@pytest.mark.parametrize("n", [5, 30, 80])
def test_inexact_division_raises(n):
    rng = random.Random(n)
    b = rand_poly(rng, n, 50)
    q = rand_poly(rng, n, 50)
    a = school_mul(q, b)
    for k in (0, len(a) // 2, len(a) - 1):
        bad = list(a)
        bad[k] += 1
        with pytest.raises(ValueError):
            ddiv_exact(bad, b)
    with pytest.raises(ValueError):
        ddiv_exact(a, [0, 0, 1] + b[3:])  # t^2 does not divide a
    with pytest.raises(ValueError):
        ddiv_exact(a, [2] + b[1:])  # wrong constant term
    with pytest.raises(ValueError):
        ddiv_exact([1] * (n + 40), [3 ** 300] * n)  # divisor far wider than the dividend


def test_division_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        ddiv_exact([1, 2, 3], [])
    with pytest.raises(ZeroDivisionError):
        ddiv_exact(list(range(1, 60)), [])


def test_division_undoes_multiplication_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 300), 2 ** 300))
    poly = st.lists(coeff, min_size=1, max_size=70).filter(lambda a: a[-1] != 0)

    @hyp.settings(max_examples=120, deadline=None)
    @hyp.given(poly, poly)
    def check(a, b):
        p = dmul(a, b)
        assert p == school_mul(a, b)
        assert ddiv_exact(p, b) == a

    check()


def test_exponent_lattice_helpers():
    a = [5, 0, 0, -2, 0, 0, 0, 0, 0, 7]
    assert dexponent_gcd(a) == 3
    assert dexponent_gcd(a, 2) == 1
    assert dexponent_gcd([4]) == 0
    assert dcompress(a, 3) == [5, -2, 0, 7]
    assert dexpand(dcompress(a, 3), 3) == a
    assert dexpand([], 3) == []
    assert dcompress(a, 1) == a and dexpand(a, 0) == a


def _cube_t(p):
    t = Polynomial.variable("t", p.vars)
    return p.substitute({"t": t ** 3}).with_variables(p.vars)


@pytest.mark.parametrize("seed", range(4))
def test_compressed_resultant_matches_sylvester(seed):
    rng = random.Random(seed)
    ty = ("t", "y")

    def rand_ty(dy):
        terms = {(i, j): rng.randint(-9, 9) for i in range(3) for j in range(dy + 1)}
        terms[(0, dy)] = rng.randint(1, 9)
        return Polynomial(ty, terms)

    P, Q = rand_ty(3), rand_ty(4)
    expected = _cube_t(sylvester_resultant(P, Q, "y"))
    got = resultant(_cube_t(P), _cube_t(Q), "y")
    assert got.with_variables(ty) == expected
    assert got.degree("t") % 3 == 0
