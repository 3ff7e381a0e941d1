import functools
import time
from fractions import Fraction

import pytest

from wronski import deadline, realroots
from wronski.errors import DomainError
from wronski.realroots import (CERTIFICATE_PRIMES, UnivariatePolynomial, _gcd_cofactor,
                               count_real_roots, ddiv_exact, dexpand, dgcd, dmul, dneg, dprem,
                               dprimitive, dstrip, isolate_real_roots, min_positive_real_root,
                               refine_interval, root_bound, sturm_count)
from wronski.rng import Stream

from planted import from_roots

U = UnivariatePolynomial


@pytest.fixture
def ten_second_run():
    """A 10 s run deadline: an isolation walk that never ends fails instead of hanging."""
    with deadline(time.monotonic() + 10):
        yield


isolation = pytest.mark.usefixtures("ten_second_run")


def test_sturm_examples():
    assert sturm_count(U([-2, 0, 1]), (0, 2)) == 1
    assert sturm_count(U([1, 0, 1]), (-10, 10)) == 0
    five = from_roots([1, 2, 3, 4, 5])
    assert sturm_count(five, (0, 6)) == 5


def test_sturm_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        sturm_count(U([]), (0, 1))


def test_sturm_half_open_convention():
    p = from_roots([1, 2])
    assert sturm_count(p, (1, 2)) == 1        # 1 excluded, 2 included
    assert sturm_count(p, (0, 1)) == 1
    assert sturm_count(p, (2, 3)) == 0
    assert sturm_count(p, (Fraction(1, 2), 5)) == 2


def test_sturm_left_endpoint_root_is_excluded():
    p = from_roots([0, 1])
    assert sturm_count(p, (0, 2)) == 1


def test_sturm_counts_distinct_roots():
    p = from_roots([2, 2, 2, 5])
    assert sturm_count(p, (0, 10)) == 2


def test_sturm_constructed_oracle():
    stream = Stream(0x57FF)
    for _ in range(200):
        k = stream.int_in(1, 4)
        roots = []
        seen = set()
        while len(roots) < k:
            r = Fraction(stream.int_in(-30, 30), stream.int_in(1, 12))
            if r not in seen:
                seen.add(r)
                roots.append(r)
        p = from_roots(roots)
        for _ in range(stream.int_in(0, 2)):  # real-root-free quadratic factors
            a = stream.int_in(1, 5)
            b = stream.int_in(-5, 5)
            c = stream.int_in(1, 9)
            while b * b - 4 * a * c >= 0:
                c += 1 + b * b // (4 * a)
            p = p * U([c, b, a])
        assert count_real_roots(p) == k
        lo = min(roots) - 1
        hi = max(roots)
        assert sturm_count(p, (lo, hi)) == k


@isolation
def test_isolation_sqrt2():
    ivs = isolate_real_roots(U([-2, 0, 1]))
    assert len(ivs) == 2
    neg = refine_interval(U([-2, 0, 1]), ivs[0], Fraction(1, 32))
    pos = refine_interval(U([-2, 0, 1]), ivs[1], Fraction(1, 32))
    assert Fraction(-3, 2) < neg.lo and neg.hi < -1
    assert 1 < pos.lo and pos.hi < Fraction(3, 2)


@isolation
def test_isolation_cube_origin_point():
    ivs = isolate_real_roots(U([0, 0, 0, 1]))
    assert len(ivs) == 1
    assert ivs[0].is_point and ivs[0].lo == 0
    assert not ivs[0].multiplicity_free


@isolation
def test_isolation_recovers_constructed_roots():
    stream = Stream(0x150)
    for _ in range(25):
        roots = sorted({Fraction(stream.int_in(-20, 20), stream.int_in(1, 8))
                        for _ in range(8)})
        p = from_roots(roots)
        ivs = isolate_real_roots(p)
        assert len(ivs) == len(roots)
        for iv, r in zip(ivs, roots):
            assert iv.lo <= r <= iv.hi
            if not iv.is_point:
                assert iv.lo < r < iv.hi
        for a, b in zip(ivs, ivs[1:]):  # pairwise disjoint and ordered
            assert a.hi <= b.lo


@isolation
def test_isolation_rational_roots_found_exactly():
    p = from_roots([Fraction(1, 2), 3]) * U([1, 0, 1])
    ivs = isolate_real_roots(p)
    # bisection midpoints hit 1/2 only by luck; both roots must still be isolated
    assert len(ivs) == 2
    vals = [iv.midpoint() for iv in ivs]
    assert any(iv.lo <= Fraction(1, 2) <= iv.hi for iv in ivs)
    assert any(iv.lo <= 3 <= iv.hi for iv in ivs)
    assert vals == sorted(vals)


@isolation
def test_isolation_runs_the_subdivision_once_per_polynomial(monkeypatch):
    # twelve irrational roots, two of them 3.5e-5 apart: many splits and no
    # exact root at a dyadic midpoint, so the Descartes subdivision runs once
    # and each split point is ranked once
    subdivisions, ranked = [], []
    real_roots, rank = realroots._real_roots, realroots._rank

    def counted_roots(q):
        subdivisions.append(q)
        return real_roots(q)

    def counted_rank(q, dq, roots, x):
        ranked.append(x)
        return rank(q, dq, roots, x)

    monkeypatch.setattr(realroots, "_real_roots", counted_roots)
    monkeypatch.setattr(realroots, "_rank", counted_rank)
    p = U([1])
    for n in (2, 3, 5, 7, 11):
        p = p * U([-n, 0, 1])
    p = p * U([-2 * 10 ** 4 - 1, 0, 10 ** 4])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 12 and len(subdivisions) == 1
    assert len(ranked) == len(set(ranked)) > 12
    # counts after the isolation read the data the squarefree part keeps
    assert sturm_count(p, (ivs[0].lo, ivs[5].hi)) == 6
    assert count_real_roots(p) == 12 and len(subdivisions) == 1
    # -5/2 lies on a split point: one restart, which ranks on the deflated
    # polynomial from the same subdivision
    subdivisions.clear()
    restarted = U([-40, 24, -24, -1, 31, 10])
    assert any(iv.is_point and iv.lo == Fraction(-5, 2) for iv in isolate_real_roots(restarted))
    assert subdivisions == [restarted.coeffs]


def _isolation_family():
    """Polynomials that exercise every branch of the isolation walk.

    One of the seeded random products, 10x^5 + 31x^4 - x^3 - 24x^2 + 24x - 40,
    has its rational root -5/2 at a midpoint of the bisection tree, so the
    walk restarts on the deflated polynomial.
    """
    stream = Stream(14)
    family = [
        from_roots([1, 2, 3, 4, 5]),  # adjacent exact dyadic roots
        from_roots([Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 30), 7]) * U([5, -4, 1]),
        from_roots([Fraction(1, 2), -3]) * U([2 ** 80 + 1, 0, 1]),  # Cauchy bound near 2^80
        from_roots([2, 2, Fraction(-5, 4)]) * U([6]) * U([1, 1, 1]),  # content 6, a square
    ]
    for _ in range(6):  # 80-bit coefficients
        family.append(U([stream.int_in(-2 ** 80, 2 ** 80) for _ in range(stream.int_in(2, 9))]))
    for _ in range(14):
        roots = [Fraction(stream.int_in(-40, 40), stream.int_in(1, 4))
                 for _ in range(stream.int_in(2, 6))]
        family.append(from_roots(roots) * U([stream.int_in(1, 9), stream.int_in(-3, 3),
                                               stream.int_in(1, 9)]))
    return family


@isolation
def test_isolating_intervals_are_pinned():
    import json
    import zlib

    data = []
    for p in _isolation_family():
        ivs = isolate_real_roots(p)
        data.append([[str(iv.lo), str(iv.hi), iv.multiplicity_free] for iv in ivs])
        data.append([[str(r.lo), str(r.hi)]
                     for r in (refine_interval(p, iv, Fraction(1, 2 ** 20)) for iv in ivs)])
    assert zlib.crc32(json.dumps(data).encode()) == 2955359611


@isolation
def test_refine_interval_width():
    p = U([-2, 0, 1])
    iv = isolate_real_roots(p)[1]
    tight = refine_interval(p, iv, Fraction(1, 10 ** 6))
    assert tight.width() <= Fraction(1, 10 ** 6)
    mid = tight.midpoint()
    assert abs(mid * mid - 2) < Fraction(1, 100000)


@isolation
def test_min_positive_real_root():
    assert min_positive_real_root(U([1, 0, 1])) is None
    iv = min_positive_real_root(U([-1, 0, 1]))
    assert iv.width() <= Fraction(1, 10000)
    assert iv.lo <= 1 <= iv.hi or abs(iv.midpoint() - 1) < Fraction(1, 1000)
    p = from_roots([-3, Fraction(1, 4), 2])
    iv = min_positive_real_root(p)
    assert iv.lo < Fraction(1, 4) < iv.hi or iv.is_point


@isolation
def test_min_positive_ignores_zero_root():
    p = from_roots([0, 0, Fraction(3, 7)])
    iv = min_positive_real_root(p)
    assert iv is not None
    assert iv.hi <= 1 and iv.lo >= 0
    mid = iv.midpoint()
    assert abs(mid - Fraction(3, 7)) < Fraction(1, 100)


@isolation
def test_min_positive_root_is_ranked_past_zero():
    # a root at 0 and the exact roots 1 and 2; then a least positive root
    # isolated by (0, 3/4), next to the exact root 3/2; then (-17/4, 0)
    # ends at 0 and holds the negative root -2
    assert min_positive_real_root(from_roots([-3, 0, 1, 2])) == \
        realroots.IsolatingInterval(Fraction(1), Fraction(1))
    for roots, hi in (([Fraction(1, 2), Fraction(3, 2)], Fraction(3, 4)),
                      ([-2, Fraction(1, 2), Fraction(3, 2)], Fraction(17, 16))):
        p = from_roots(roots)
        assert realroots.IsolatingInterval(Fraction(0), hi) in isolate_real_roots(p)
        iv = min_positive_real_root(p)
        assert 0 <= iv.lo < Fraction(1, 2) < iv.hi <= hi and iv.width() <= Fraction(1, 10000)
    assert min_positive_real_root(from_roots([-2, 0])) is None


def test_root_bound_contains_all_roots():
    stream = Stream(0xB0)
    for _ in range(30):
        roots = [Fraction(stream.int_in(-40, 40), stream.int_in(1, 6)) for _ in range(4)]
        p = from_roots(roots)
        b = root_bound(p)
        assert all(abs(r) < b for r in roots)


@isolation
def test_isolation_closed_interval_invariant():
    # each returned closed interval must contain exactly one distinct root,
    # even when another root sits near a bisection breakpoint
    p = from_roots([0, 0, Fraction(3, 7), 1])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 3
    for iv in ivs:
        inside = sturm_count(p, (iv.lo - Fraction(1, 10 ** 9), iv.hi))
        assert inside == 1
        assert not iv.multiplicity_free


def test_squarefree_part_and_flag():
    p = from_roots([1, 1, 2])
    sf = p.squarefree_part()
    assert sf.degree() == 2
    assert not p.is_squarefree()
    assert sf.is_squarefree()


@isolation
def test_squarefree_part_is_kept_and_reused():
    p = from_roots([1, 1, 2, Fraction(1, 3)])
    sf = p.squarefree_part()
    assert p.squarefree_part() is sf and sf.squarefree_part() is sf
    assert sf == U([-2, 9, -10, 3])
    ivs = isolate_real_roots(p)
    assert [iv.multiplicity_free for iv in ivs] == [False] * 3
    assert sturm_count(p, (0, 3)) == sturm_count(sf, (0, 3)) == 3
    wide = [iv for iv in ivs if not iv.is_point]
    for iv in wide:
        assert refine_interval(p, iv, Fraction(1, 1000)) == refine_interval(sf, iv, Fraction(1, 1000))


def test_sign_at_rationals_matches_fraction_evaluation():
    from wronski.realroots import _sign_at

    stream = Stream(17)
    for _ in range(200):
        ints = [stream.nonzero_int(40) for _ in range(stream.nonzero_int(6) % 6 + 1)]
        x = Fraction(stream.nonzero_int(50), abs(stream.nonzero_int(7)))
        v = U(ints)(x)
        assert _sign_at(ints, x) == (v > 0) - (v < 0)
    assert _sign_at([-6, 1, 1], Fraction(2)) == 0 and _sign_at([], Fraction(1, 3)) == 0


# -- Descartes counting and the modular squarefree certificate ----------------------

BIG = 2 ** 500


@pytest.mark.parametrize("roots, extra", [
    ([0], []),
    ([Fraction(3, 7)], []),
    ([BIG], []),
    ([0, Fraction(1, 2), Fraction(3, 4), Fraction(-5, 8)], []),
    ([Fraction(1, 2), Fraction(3, 4), Fraction(-5, 8)], [[1, 0, 1]]),
    ([1, 1 + Fraction(1, 2 ** 40), -3, -3 - Fraction(1, 2 ** 40)], []),
    ([Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 30), 7], [[5, -4, 1]]),
    ([BIG, -BIG + 1, Fraction(1, BIG), Fraction(-3, BIG)], [[BIG + 1, 3, BIG]]),
    ([2, 2, 2, 5, 0, 0], []),
    ([], [[1, 0, 1], [BIG, 1, BIG]]),
])
def test_descartes_count_on_planted_roots(roots, extra):
    p = from_roots(roots)
    for q in extra:
        p = p * U(q)
    distinct = sorted(set(roots))
    assert count_real_roots(p) == sturm_count(p, (None, None)) == len(distinct)
    # windows ending on planted roots: (a, b] keeps b and drops a
    ends = [None] + distinct
    for a in ends:
        for b in ends[1:]:
            if a is None or a < b:
                expected = sum(1 for r in distinct if (a is None or a < r) and r <= b)
                assert sturm_count(p, (a, b)) == expected, (a, b)
    sympy = pytest.importorskip("sympy")
    assert _sympy_poly(sympy, p).count_roots() == len(distinct)


def _sympy_poly(sympy, p):
    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"))


def _sympy_count(sympy, poly, a, b):
    """Distinct roots in (a, b]: sympy counts the closed interval [a, b]."""
    a, b = sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator)
    return poly.count_roots(a, b) - (poly.eval(a) == 0)


def test_counts_match_sympy_property():
    hyp = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hyp.strategies
    ends = st.fractions(min_value=-64, max_value=64, max_denominator=64)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=1, max_size=13),
               st.lists(st.integers(-2 ** 8, 2 ** 8), min_size=1, max_size=4), ends, ends)
    def check(h, g, a, b):
        a, b = min(a, b), max(a, b)
        for ints in (h, dmul(dmul(g, g), h)):  # the squarefree part comes first
            p = U(ints)
            if p.is_zero():
                continue
            poly = _sympy_poly(sympy, p)
            assert count_real_roots(p) == poly.count_roots()
            if a < b:
                assert sturm_count(p, (a, b)) == _sympy_count(sympy, poly, a, b)

    check()


def test_certificate_never_accepts_a_square_factor():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    nonconstant = st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=2, max_size=5).filter(
        lambda a: len(dstrip(list(a))) >= 2)

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(nonconstant, st.lists(st.integers(-2 ** 100, 2 ** 100), min_size=1, max_size=9))
    def check(g, h):
        f = dmul(dmul(g, g), h)
        if f:
            ints = U(f).int_primitive()
            assert len(_gcd_cofactor(ints, derivative(ints))[0]) > 1
            assert not U(f).is_squarefree()

    check()


def derivative(ints):
    return dstrip([k * c for k, c in enumerate(ints)][1:])


def test_certificate_skips_primes_dividing_the_leading_coefficient(monkeypatch):
    primes = []  # the prime of each gcd image, in order
    gcd_mod_p = realroots._gcd_mod_p

    def recorded(a, b, p):
        primes.append(p)
        return gcd_mod_p(a, b, p)

    monkeypatch.setattr(realroots, "_gcd_mod_p", recorded)
    p0, p1 = CERTIFICATE_PRIMES[:2]
    # (p0 x + 1)^2 (x - 1) is x - 1 modulo p0, squarefree there
    f = dmul(dmul([1, p0], [1, p0]), [-1, 1])
    assert _gcd_cofactor(f, derivative(f))[0] == [1, p0] and not U(f).is_squarefree()
    assert p0 not in primes
    # and a leading coefficient divisible by every prime leaves it to the later primes
    lc = 1
    for q in CERTIFICATE_PRIMES:
        lc *= q
    f = [-1, 0, lc]
    primes.clear()
    assert _gcd_cofactor(f, derivative(f)) == ([1], f) and U(f).is_squarefree()
    assert primes and not set(primes) & set(CERTIFICATE_PRIMES)
    g = [-1, 0, p0 * p1 + 1]
    primes.clear()
    assert _gcd_cofactor(g, derivative(g)) == ([1], g) and primes == [p0]


def test_certificate_keeps_the_primitive_polynomial_as_squarefree_part():
    p = U([Fraction(-3, 2), 0, Fraction(9, 4)])
    assert p.is_squarefree()
    assert p._sf.coeffs == [-2, 0, 3] and p.squarefree_part() is p._sf
    assert p._sf.squarefree_part() is p._sf


def test_counts_and_primes_match_sympy():
    sympy = pytest.importorskip("sympy")
    # one CPython digit each, so Euclid modulo them runs on the smallest ints
    assert all(sympy.isprime(q) and q < 2 ** 30 for q in CERTIFICATE_PRIMES)
    x = sympy.Symbol("x")
    stream = Stream(0xDE5C)
    for _ in range(60):
        roots = [Fraction(stream.int_in(-40, 40), stream.int_in(1, 9))
                 for _ in range(stream.int_in(0, 5))]
        noise = [stream.int_in(-2 ** 30, 2 ** 30) for _ in range(stream.int_in(1, 7))]
        p = from_roots(roots) * U(noise or [1])
        if p.is_zero():
            continue
        ints = p.int_primitive()
        poly = sympy.Poly(list(reversed(ints)), x)
        assert count_real_roots(p) == len(poly.sqf_part().real_roots())


# -- integer signs, kept intervals and deadlines in isolation ---------------------------


@isolation
def test_isolation_does_not_depend_on_scale_or_sign():
    # signs are taken from an integer multiple of p by a positive number, so
    # the intervals of p, -p and rational multiples of p must agree
    p = from_roots([Fraction(1, 2), 0, -3, Fraction(7, 4)]) * U([-2, 0, 1]) * U([1, 1, 1])
    ivs = isolate_real_roots(p)
    assert len(ivs) == 6 and [iv.lo for iv in ivs if iv.is_point] == [0]
    for q in (-p, p * Fraction(-5, 3), from_roots([Fraction(7, 4)]) * p):
        assert [(iv.lo, iv.hi) for iv in isolate_real_roots(q)] == [(iv.lo, iv.hi) for iv in ivs]
        for iv in ivs:
            assert refine_interval(q, iv, Fraction(1, 2 ** 20)) == \
                refine_interval(p, iv, Fraction(1, 2 ** 20))
    assert sturm_count(-p, (Fraction(1, 2), Fraction(7, 4))) == 2


@isolation
def test_isolation_is_kept_once_computed(monkeypatch):
    from wronski import realroots

    seen = []
    isolate = realroots._isolate

    def counted(p):
        seen.append(p)
        return isolate(p)

    monkeypatch.setattr(realroots, "_isolate", counted)
    p = from_roots([1, 2, Fraction(5, 3)]) * U([-2, 0, 1])
    first = isolate_real_roots(p)
    first.clear()  # the caller's list is its own
    assert isolate_real_roots(p) == isolate_real_roots(U(p.coeffs))
    assert len(isolate_real_roots(p)) == 5
    assert len(seen) == 2 and seen[0] is p and seen[1] is not p


def test_counts_honor_deadline():
    past = time.monotonic() - 1
    p = from_roots([1, 2, 3, Fraction(1, 3)]) * U([-2, 0, 1])
    counters = (count_real_roots, lambda p: sturm_count(p, (0, 2)))
    for count, expected in zip(counters, (6, 4)):  # 1/3, 1, sqrt 2 and 2 in (0, 2]
        q = U(p.coeffs)
        with deadline(past), pytest.raises(TimeoutError):
            count(q)
        q.squarefree_part()
        with deadline(past), pytest.raises(TimeoutError):
            count(q)
        assert count(q) == expected and q._roots is None
        with deadline(past), pytest.raises(TimeoutError):  # the kept data is checked too
            count(q)


@isolation
def test_isolation_and_refinement_honor_deadline():
    past = time.monotonic() - 1
    p = from_roots([1, 2, 3, Fraction(1, 3)]) * U([-2, 0, 1])
    with deadline(past), pytest.raises(TimeoutError, match="gcd"):  # the squarefree gcd first
        isolate_real_roots(p)
    p.squarefree_part()
    with deadline(past), pytest.raises(TimeoutError):
        isolate_real_roots(p)
    ivs = isolate_real_roots(p)
    assert len(ivs) == 6
    wide = next(iv for iv in ivs if not iv.is_point)
    with deadline(past), pytest.raises(TimeoutError, match="interval refinement"):
        refine_interval(p, wide, Fraction(1, 10 ** 6))
    assert refine_interval(p, wide, Fraction(1, 10 ** 6)).width() <= Fraction(1, 10 ** 6)


# -- the integer representation ---------------------------------------------------------


def test_rational_input_is_stored_as_integers():
    p = U([Fraction(1, 2), Fraction(-1, 3)])
    assert p.coeffs == [3, -2] and all(type(c) is int for c in p.coeffs)
    assert p == U([3, -2]) and hash(p) == hash(U([3, -2]))
    assert repr(p) == "UnivariatePolynomial(-2*x + 3)"
    assert from_roots([Fraction(1, 2), -3]).coeffs == [-3, 5, 2]  # (2x - 1)(x + 3)
    assert (p * Fraction(-3, 2)).coeffs == [-9, 6] and (-p).coeffs == [-3, 2]
    assert (p * p).coeffs == [9, -12, 4] and (p * 0).is_zero()
    assert U([0, Fraction(0)]).is_zero() and repr(U([])) == "UnivariatePolynomial(0)"
    assert U([2, 4, 0]).coeffs == [2, 4]  # kept as given, not made primitive
    assert U([1, 2, 3])(Fraction(1, 2)) == Fraction(11, 4)


def test_squarefree_part_reuses_the_gcd_cofactor(monkeypatch):
    # the exact division that accepts gcd(f, f') already gives f / gcd
    from wronski import realroots

    seen = []
    divide = realroots.ddiv_exact

    def counted(a, b):
        seen.append((tuple(a), tuple(b)))
        return divide(a, b)

    monkeypatch.setattr(realroots, "ddiv_exact", counted)
    p = from_roots([1, 1, 1, -2, -2, Fraction(1, 3)]) * U([1, 0, 1])
    assert p.squarefree_part() == from_roots([1, -2, Fraction(1, 3)]) * U([1, 0, 1])
    assert seen and len(seen) == len(set(seen))


# -- exponent lattices ----------------------------------------------------------------


def prs_gcd(a, b):
    """Primitive gcd, positive leading coefficient, by the primitive PRS on the lists as given."""
    a, b = dstrip(dprimitive(a)), dstrip(dprimitive(b))
    while b:
        a, b = b, dstrip(dprimitive(dprem(a, b)))
    return dneg(a) if a and a[-1] < 0 else a


def random_ints(stream, degree):
    """A random integer list of the given degree, nonzero constant term, either sign on top."""
    ints = [stream.nonzero_int(9)] + [stream.int_in(-9, 9) for _ in range(degree)]
    ints[-1] = ints[-1] or stream.nonzero_int(9)
    return ints


def test_gcd_in_the_common_lattice_matches_the_uncompressed_fold():
    # operands x^(g j) c(x^g) f_i(x^g) sharing the lattice g = 1..6, the first
    # sometimes in a coarser one, among zero and constant operands
    stream = Stream(0x1A771CE)
    shared = 0
    for case in range(120):
        g = 1 + case % 6
        common = random_ints(stream, stream.int_in(0, 3))
        operands = []
        for i in range(stream.int_in(2, 5)):
            kind = stream.int_in(0, 9)
            if kind == 0:
                operands.append([])
            elif kind == 1:
                operands.append([stream.nonzero_int(5)])
            else:
                q = dmul(common, random_ints(stream, stream.int_in(0, 3)))
                step = g * (stream.int_in(2, 3) if i == 0 and kind < 5 else 1)
                operands.append(dexpand([0] * stream.int_in(0, 2) + q, step))
        expected = []
        for a in operands:
            expected = prs_gcd(expected, a)
        assert dgcd(*operands) == expected, (case, operands)
        shared += len(expected) > 1
    assert shared >= 40


def test_squarefree_part_in_its_own_lattice_matches_the_uncompressed_cofactor():
    # p = x^m q(x^g)^e against p / gcd(p, p'), taken without compression
    stream = Stream(0x5F1A7)
    for m in range(4):
        for g in range(1, 5):
            for e in range(1, 4):
                q = random_ints(stream, stream.int_in(1, 3))
                p = [0] * m + dexpand(functools.reduce(dmul, [q] * e), g)
                derivative = dstrip([k * c for k, c in enumerate(p)][1:])
                expected = dprimitive(ddiv_exact(p, prs_gcd(p, derivative)))
                expected = dneg(expected) if expected[-1] < 0 else expected
                assert U(p).squarefree_part().coeffs == expected, (m, g, e, q)


# -- the Bernstein subdivision against the full tree of the power basis -----------------


def _full_variations(signs):
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _full_taylor1(a):
    a = list(a)
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _full_halve(a):
    n = len(a) - 1
    out = [c << (n - i) for i, c in enumerate(a)]
    v = min((c & -c).bit_length() for c in out if c) - 1
    return [c >> v for c in out] if v else out


def _full_tree_unit_roots(q, k, split=None):
    """`realroots._unit_roots` in the power basis, a full test at every node: the reference.

    The variation count of each node split (v >= 2) is appended to split.
    """
    def at(j, e):
        return Fraction(j << k, 1 << e)

    out = []
    stack = [(q, 0, 0)]
    while stack:
        q, j, e = stack.pop()
        v = _full_variations(_full_taylor1(q[::-1]))
        if v == 1:
            out.append((at(j, e), at(j + 1, e)))
        if v < 2:
            continue
        if split is not None:
            split.append(v)
        left = _full_halve(q)
        right = _full_taylor1(left)
        if right[0] == 0:
            out.append((at(2 * j + 1, e + 1),) * 2)
            right = right[1:]
            left = realroots.ddiv_exact(left, [-1, 1])
        stack.extend(((left, 2 * j, e + 1), (right, 2 * j + 1, e + 1)))
    return out


def _budget_family():
    """Squarefree parts with roots at midpoints, clusters, complex pairs and a huge bound.

    The roots at midpoints are dyadic, the clusters 10^-3 to 10^-12 wide, the
    complex pairs 10^-1 to 10^-8 off the axis, and the Cauchy bound near 2^80.
    """
    stream = Stream(0xB4D6)

    def rational(num, den):
        return Fraction(stream.int_in(-num, num), stream.int_in(1, den))

    family = []
    for _ in range(12):
        family.append(from_roots({Fraction(stream.int_in(-64, 64), 2 ** stream.int_in(0, 5))
                                    for _ in range(stream.int_in(2, 10))}))
        base, eps = rational(50, 9), Fraction(1, 10 ** stream.int_in(3, 12))
        family.append(from_roots({base + i * eps for i in range(stream.int_in(2, 4))}
                                   | {rational(99, 7) for _ in range(stream.int_in(0, 4))}))
        p = from_roots({rational(30, 5) for _ in range(stream.int_in(1, 5))})
        for _ in range(stream.int_in(1, 3)):  # (x - a)^2 + b^2 with b = 10^-e
            a, b = rational(30, 5), Fraction(1, 10 ** stream.int_in(1, 8))
            p = p * U([a * a + b * b, -2 * a, 1])
        family.append(p)
        family.append(from_roots({rational(9, 4) for _ in range(stream.int_in(1, 5))})
                      * U([2 ** 80 + stream.int_in(1, 9), stream.int_in(-5, 5), 1]))
    return [p.squarefree_part().coeffs for p in family]


@isolation
def test_budgeted_subdivision_matches_the_full_tree(monkeypatch):
    family = _budget_family()
    budgeted = [realroots._real_roots(q) for q in family]
    assert sum(1 for roots in budgeted for lo, hi in roots if lo == hi != 0) > 20
    monkeypatch.setattr(realroots, "_unit_roots", _full_tree_unit_roots)
    assert [realroots._real_roots(q) for q in family] == budgeted


@isolation
def test_one_de_casteljau_pass_per_node_split(monkeypatch):
    # the Bernstein subdivision splits exactly the nodes of the full tree with
    # v >= 2, each by one pass that yields both children, and no node with v <= 1
    family = [p.squarefree_part().coeffs for p in _isolation_family()]
    passes = []
    split = realroots._split

    def counted(b):
        passes.append(realroots._variations(b))
        return split(b)

    monkeypatch.setattr(realroots, "_split", counted)
    for q in family:
        realroots._real_roots(q)
    reference = []
    monkeypatch.setattr(realroots, "_unit_roots",
                        lambda q, k: _full_tree_unit_roots(q, k, reference))
    for q in family:
        realroots._real_roots(q)
    assert sorted(passes) == sorted(reference) and len(passes) == 201
    assert min(passes) >= 2


@isolation
def test_no_split_of_a_node_with_at_most_one_variation(monkeypatch):
    # every root in (0, 1/2): the right half of the top node counts 0 and is
    # never split, nor is any node holding a single root
    split = realroots._split
    q = from_roots([Fraction(1, 5), Fraction(2, 7), Fraction(1, 3)]).coeffs
    top_right = split(realroots._bernstein(q))[1]
    passes = []

    def counted(b):
        passes.append((list(b), realroots._variations(b)))
        return split(b)

    monkeypatch.setattr(realroots, "_split", counted)
    roots = realroots._unit_roots(q, 0)
    assert len(roots) == 3 and all(hi <= Fraction(1, 2) for lo, hi in roots)
    assert realroots._variations(top_right) == 0
    assert all(b != top_right for b, v in passes[1:])
    assert all(v >= 2 for b, v in passes)
    reference = []
    _full_tree_unit_roots(q, 0, reference)
    assert sorted(v for b, v in passes) == sorted(reference)


def test_a_miscounted_variation_breaks_the_subdivision_instead_of_splitting_forever(monkeypatch):
    # each node counted one variation high: a node holding one root is split
    # below the root separation of q, where its count cannot be 2
    variations = realroots._variations
    monkeypatch.setattr(realroots, "_variations", lambda b: variations(b) + 1)
    q = from_roots([Fraction(1, 3), Fraction(2, 3), -5]).coeffs
    with deadline(time.monotonic() + 1), pytest.raises(DomainError, match="isolation broken"):
        realroots._real_roots(q)


@isolation
def test_a_miscounted_rank_breaks_isolation_instead_of_splitting_forever(monkeypatch):
    # each root counted twice: the walk follows it below the root separation of q
    rank = realroots._rank
    monkeypatch.setattr(realroots, "_rank", lambda q, dq, roots, x: 2 * rank(q, dq, roots, x))
    p = U([-2, 0, 1]) * U([-3, 0, 1])
    with deadline(time.monotonic() + 1), pytest.raises(DomainError, match="isolation broken"):
        isolate_real_roots(p)
