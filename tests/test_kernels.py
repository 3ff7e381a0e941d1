"""The Z[t] kernels against schoolbook references, the modular gcd
against the primitive PRS, and exponent-lattice compression of the integer
resultant against the Sylvester determinant."""

import random
import time

import pytest

from wronski import deadline, realroots
from wronski.polynomial import Polynomial
from wronski.realroots import (CERTIFICATE_PRIMES, QUOTIENT_2ADIC_BITS, _inverse_2adic,
                               _is_prime, _primes, dcompress, ddiv_exact, dexpand,
                               dexponent_gcd, dgcd, dinterpolate, dmul, dneg, dprem, dprimitive,
                               dquo_exact, dstrip)
from wronski.resultants import _pack, resultant, sylvester_resultant

SIZES = (1, 8, 23, 24, 25, 61, 130)


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


def test_ddiv_exact_quotient_wider_than_dividend():
    # (t-1)^30 (t+1)^30 = (t^2-1)^30: the quotient's coefficients are as wide
    # as the dividend's, beyond the first slot width tried
    b, q = [1], [1]
    for _ in range(30):
        b = school_mul(b, [1, 1])
        q = school_mul(q, [-1, 1])
    assert ddiv_exact(school_mul(q, b), b) == q


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


def test_packed_quotient_exact_at_the_slot_point_is_rejected():
    # a = q b + (x - 2^w) s with s the balanced carries of q b in base 2^w:
    # a(2^w) = q(2^w) b(2^w) and a's coefficients fit in a w-bit slot, yet b
    # does not divide a, so a quotient read from the packed integers alone
    # would be wrong
    rng = random.Random(11)
    w = 64
    b = [rng.randint(-2 ** 48, 2 ** 48) for _ in range(24)] + [1]
    q = [rng.randint(-2 ** 20, 2 ** 20) for _ in range(24)] + [1]
    c = school_mul(q, b)
    s, carry = [], 0
    for x in c:
        carry = (x + carry + 2 ** (w - 1)) >> w
        s.append(carry)
    a = [x + (s[i - 1] if i else 0) - (s[i] << w) for i, x in enumerate(c)]
    assert any(s) and s[-1] == 0 and a[-1] == c[-1]
    assert _pack(a, w // 8) == _pack(q, w // 8) * _pack(b, w // 8)
    with pytest.raises(ValueError):
        ddiv_exact(a, b)


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


# -- exact integer quotients ---------------------------------------------------------


CUT = QUOTIENT_2ADIC_BITS


def inverses(monkeypatch):
    """The precisions of the 2-adic inverses dquo_exact takes, in order."""
    seen = []
    inverse = realroots._inverse_2adic

    def recorded(b, nbits):
        seen.append(nbits)
        return inverse(b, nbits)

    monkeypatch.setattr(realroots, "_inverse_2adic", recorded)
    return seen


def big(rng, bits):
    """A signed integer of exactly the given bit length."""
    return rng.choice([-1, 1]) * (rng.getrandbits(bits - 1) | 1 << (bits - 1))


@pytest.mark.parametrize("qbits, dbits, two_adic", [
    (CUT - 3, CUT + 500, False),   # the quotient just below the cut
    (CUT - 1, CUT + 500, True),    # nq = qbits + 1 or + 2 reaches it
    (CUT + 500, CUT - 1, False),   # the divisor just below the cut
    (CUT + 500, CUT, True),
    (3 * CUT, 2 * CUT, True),
    (40, 5 * CUT, False),
])
def test_exact_quotient_on_both_sides_of_the_cut(monkeypatch, qbits, dbits, two_adic):
    seen = inverses(monkeypatch)
    rng = random.Random(qbits + 7 * dbits)
    for shift in (0, 1, 17, 33):  # divisors of dbits bits carrying a power of two
        d = big(rng, dbits - shift) << shift
        qs = [big(rng, qbits), -big(rng, qbits), 0, big(rng, qbits // 2 + 1), 1, -1]
        assert dquo_exact([q * d for q in qs], d) == qs
    assert bool(seen) == two_adic
    assert len(seen) in (0, 4)  # one inverse serves every entry


@pytest.mark.parametrize("cut", [CUT, 64])
def test_exact_quotient_undoes_the_product_property(monkeypatch, cut):
    # with the cut lowered to 64 bits most draws take the 2-adic path
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    monkeypatch.setattr(realroots, "QUOTIENT_2ADIC_BITS", cut)
    # integers of up to cut + 200 bits, drawn by bit length and seed
    wide = st.builds(lambda bits, seed, sign: sign * random.Random(seed).getrandbits(bits),
                     st.integers(1, cut + 200), st.integers(0, 2 ** 32), st.sampled_from([-1, 1]))
    entry = st.one_of(st.integers(-3, 3), wide)

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(st.lists(entry, min_size=1, max_size=5), wide.filter(bool),
               st.integers(0, 90))
    def check(qs, d, shift):
        d <<= shift
        assert dquo_exact([q * d for q in qs], d) == qs

    check()


@pytest.mark.parametrize("bits", [200, CUT + 200])
def test_inexact_quotient_raises(bits):
    rng = random.Random(bits)
    d, q = big(rng, bits), big(rng, bits)
    for bad in (q * d + 1, q * d - d // 2, q * d + (1 << (bits // 2))):
        with pytest.raises(ValueError):
            dquo_exact([bad], d)
        with pytest.raises(ValueError):
            dquo_exact([q * d, bad, -q * d], d)  # one inexact entry among exact ones
    with pytest.raises(ValueError):
        dquo_exact([(2 * q + 1) * d], 2 * d)  # the divisor's power of two does not divide
    with pytest.raises(ValueError):
        dquo_exact([q * d], d << 5)
    with pytest.raises(ZeroDivisionError):
        dquo_exact([q], 0)



# -- exact interpolation ----------------------------------------------------------------


def _value(a, x):
    return sum(c * x ** k for k, c in enumerate(a))


@pytest.mark.parametrize("bits", [1, 64, 1700])
def test_dinterpolate_recovers_integer_polynomials(bits):
    rng = random.Random(bits)
    nodes = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6]
    for deg in range(len(nodes)):
        p = rand_poly(rng, deg + 1, bits)
        assert dinterpolate(nodes, [_value(p, x) for x in nodes]) == p
    # any distinct integer nodes, in any order
    p = rand_poly(rng, 5, bits)
    nodes = [7, -3, 100, 0, -41, 2]
    assert dinterpolate(nodes, [_value(p, x) for x in nodes]) == p


def test_dinterpolate_degree_below_the_node_count():
    nodes = [0, 1, -1, 2, -2, 3, -3]
    for p in ([], [5], [-3, 0, 2], [0, 0, 0, 1]):
        assert dinterpolate(nodes, [_value(p, x) for x in nodes]) == p
    assert dinterpolate([4], [9]) == [9]


def test_dinterpolate_rejects_values_of_no_integer_polynomial():
    with pytest.raises(ValueError):
        dinterpolate([0, 2], [0, 1])  # the line through them has slope 1/2
    with pytest.raises(ValueError):
        dinterpolate([0, 1, -1], [0, 0, 1])  # x (x - 1) / 2

# -- the modular gcd -------------------------------------------------------------------


def prs_gcd(a, b):
    """Primitive gcd with positive leading coefficient by the primitive PRS."""
    a, b = dprimitive(a), dprimitive(b)
    if not a:
        g = list(b)
    elif not b:
        g = list(a)
    else:
        while b:
            if len(b) - 1 == 0:
                g = [1]
                break
            a, b = b, dprimitive(dprem(a, b))
        else:
            g = a
    if g and g[-1] < 0:
        g = dneg(g)
    return g


def images(monkeypatch):
    """The degrees of the gcd images dgcd computes, in order."""
    seen = []
    gcd_mod_p = realroots._gcd_mod_p

    def recorded(a, b, p):
        g = gcd_mod_p(a, b, p)
        seen.append((p, len(g) - 1))
        return g

    monkeypatch.setattr(realroots, "_gcd_mod_p", recorded)
    return seen


def test_modular_gcd_matches_the_primitive_prs_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 90), 2 ** 90))
    poly = st.lists(coeff, min_size=0, max_size=9)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(poly, poly, poly)
    def check(g, h1, h2):
        g, h1, h2 = dstrip(g), dstrip(h1), dstrip(h2)
        a, b = dmul(g, h1), dmul(g, h2)
        for x, y in ((a, b), (b, a), (g, h1), (a, dmul(a, h2))):
            assert dgcd(x, y) == prs_gcd(x, y)

    check()


def test_modular_gcd_and_squarefree_part_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(0x6CD)

    def to_sympy(a):
        return sympy.Poly(list(reversed(a)) or [0], x)

    for _ in range(40):
        g = rand_poly(rng, rng.randint(1, 6), rng.choice([3, 70]))
        a = dmul(dmul(g, g), rand_poly(rng, rng.randint(1, 8), 20))
        b = dmul(g, rand_poly(rng, rng.randint(1, 8), 200))
        got = dgcd(a, b)
        expected = to_sympy(a).gcd(to_sympy(b))
        assert to_sympy(got) == expected.primitive()[1] * sympy.sign(expected.LC())
        sf = realroots.UnivariatePolynomial(a).squarefree_part()
        expected = to_sympy(a).sqf_part()
        assert to_sympy(sf.coeffs) == expected.primitive()[1] * sympy.sign(expected.LC())


def test_unlucky_primes_are_dropped(monkeypatch):
    # (x + 2)(x + 1) and (x + 2)(x + 1 + p0 p1): modulo each of the first two
    # primes the gcd is the whole quadratic; the third prime finds x + 2
    p0, p1 = CERTIFICATE_PRIMES[:2]
    a = dmul([2, 1], [1, 1])
    b = dmul([2, 1], [1 + p0 * p1, 1])
    seen = images(monkeypatch)
    assert dgcd(a, b) == [2, 1]
    assert seen[:3] == [(p0, 2), (p1, 2), (CERTIFICATE_PRIMES[2], 1)]


def test_primes_dividing_the_leading_coefficient_are_skipped(monkeypatch):
    p0, p1, p2 = CERTIFICATE_PRIMES[:3]
    g = [-5, 3, 0, 7]
    a = dmul([1, p0 * p1], g)
    b = dmul([3, -1], g)
    seen = images(monkeypatch)
    assert dgcd(a, b) == g and [p for p, _ in seen] == [p2]
    del seen[:]
    assert dgcd(b, a) == g and [p for p, _ in seen] == [p0]


def test_wide_coefficients_need_many_primes(monkeypatch):
    rng = random.Random(500)
    g = [rng.getrandbits(500) - 2 ** 499 for _ in range(6)] + [2 ** 500 + 1]
    a = dmul(g, rand_poly(rng, 5, 500))
    b = dmul(g, rand_poly(rng, 7, 30))
    seen = images(monkeypatch)
    assert dgcd(a, b) == prs_gcd(a, b) == dprimitive(g)
    # the candidate is exact only once the moduli exceed twice its coefficients
    assert len(seen) > len(CERTIFICATE_PRIMES) and all(d == 6 for _, d in seen)
    assert len({p for p, _ in seen}) == len(seen)


def test_modular_gcd_trivial_operands(monkeypatch):
    assert dgcd([], []) == []
    assert dgcd([], [-6, 0, -4]) == dgcd([-6, 0, -4], []) == [3, 0, 2]
    assert dgcd([0, 0], [8]) == [1]
    assert dgcd([12], [18]) == [1] and dgcd([4], [2, 6, 4]) == [1]
    assert dgcd([1, 2, 1], [3, 3]) == [1, 1]
    assert dgcd([0, -4, 0], [0, 0, 6, 0, 0]) == [0, 1]  # zero leading entries are dropped
    seen = images(monkeypatch)
    # a unit image proves the gcd trivial with no second prime
    assert dgcd(dmul([1, 1], [5, 0, 1]), dmul([-1, 1], [7, 0, 1])) == [1]
    assert len(seen) == 1


def test_modular_gcd_checks_its_deadline_before_the_first_prime(monkeypatch):
    seen = images(monkeypatch)
    with deadline(time.monotonic() - 1), pytest.raises(TimeoutError):
        dgcd([-1, 1], [1, 1])
    assert seen == []


def test_prime_supply_matches_sympy():
    sympy = pytest.importorskip("sympy")
    supply = _primes()
    assert [next(supply) for _ in CERTIFICATE_PRIMES] == list(CERTIFICATE_PRIMES)
    below = [next(supply) for _ in range(6)]
    expected, n = [], CERTIFICATE_PRIMES[-1]
    for _ in range(6):
        n = sympy.prevprime(n)
        expected.append(n)
    assert below == expected
    assert all(_is_prime(n) == sympy.isprime(n) for n in range(-2, 3000))
    # strong pseudoprimes to the bases 2..7 and to 2..31
    for n in (3215031751, 3825123056546413051):
        assert not _is_prime(n) and not sympy.isprime(n)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 89 - 1)


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
