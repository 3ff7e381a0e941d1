import math
import random
import time
from fractions import Fraction

import pytest

from wronski import deadline, realroots, resultants
from wronski.errors import DomainError
from wronski.polynomial import Polynomial
from wronski.realroots import dprem, dquo_exact
from wronski.resultants import resultant, resultant_factors, sylvester_matrix, sylvester_resultant
from wronski.rng import Stream

XY = ("x", "y")
TX = ("t", "x")


def test_resultant_substitution_example():
    f = Polynomial(XY, {(0, 1): 1, (0, 0): -1})      # y - 1
    g = Polynomial(XY, {(0, 2): 1, (1, 0): -1})      # y^2 - x
    r = resultant(f, g, "y")
    one_minus_x = Polynomial(XY, {(0, 0): 1, (1, 0): -1})
    assert r == one_minus_x or r == -one_minus_x


def test_resultant_common_factor_is_zero():
    f = Polynomial(XY, {(0, 1): 1, (1, 0): -1})      # y - x
    assert resultant(f, f, "y").is_zero()


def test_resultant_quadratic_pair():
    f = Polynomial(TX, {(0, 2): 1, (0, 0): 1})       # x^2 + 1
    g = Polynomial(TX, {(0, 2): 1, (1, 0): -1})      # x^2 - t
    r = resultant(f, g, "x")
    assert r == Polynomial(TX, {(2, 0): 1, (1, 0): 2, (0, 0): 1})  # (t+1)^2


def test_resultant_degree_zero_side():
    f = Polynomial(XY, {(0, 0): 3})
    g = Polynomial(XY, {(0, 2): 1, (1, 0): 1})
    assert resultant(f, g, "y") == Polynomial(XY, {(0, 0): 9})
    with pytest.raises(DomainError):
        resultant(f, f, "y")


def test_resultant_rejects_zero_input():
    f = Polynomial(XY, {})
    g = Polynomial(XY, {(0, 1): 1})
    with pytest.raises(DomainError):
        resultant(f, g, "y")


def _random_poly(stream, max_deg_each, density=0.8, nvars=2, vars_=XY):
    terms = {}
    for i in range(max_deg_each + 1):
        for j in range(max_deg_each + 1):
            if stream.int_in(0, 99) < int(100 * density):
                c = stream.int_in(-9, 9)
                if c:
                    terms[(i, j)] = c
    if not terms:
        terms[(0, 0)] = 1
    return Polynomial(vars_, terms)


def test_prs_matches_sylvester_determinant():
    stream = Stream(0x51D)
    done = 0
    while done < 100:
        f = _random_poly(stream, stream.int_in(1, 2))
        g = _random_poly(stream, stream.int_in(1, 2))
        if f.degree("y") < 1 or g.degree("y") < 1:
            continue
        if f.degree("y") + g.degree("y") > 8:
            continue
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")
        done += 1


def test_prs_matches_sylvester_with_rational_contents():
    stream = Stream(0xABEF)
    for _ in range(20):
        f = _random_poly(stream, 2) * Fraction(stream.int_in(1, 7), stream.int_in(1, 7))
        g = _random_poly(stream, 1) * Fraction(stream.int_in(1, 7), stream.int_in(1, 7))
        if f.degree("y") < 1 or g.degree("y") < 1:
            continue
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")


def test_resultant_zero_iff_common_factor():
    stream = Stream(0x6CD)
    for _ in range(40):
        f = _random_poly(stream, 1)
        g = _random_poly(stream, 1)
        h = _random_poly(stream, 1)
        if h.degree("y") < 1:
            continue
        fh, gh = f * h, g * h
        if fh.degree("y") < 1 or gh.degree("y") < 1:
            continue
        assert resultant(fh, gh, "y").is_zero()  # planted common factor
    for _ in range(40):
        f = _random_poly(stream, 2)
        g = _random_poly(stream, 2)
        if f.degree("y") < 1 or g.degree("y") < 1:
            continue
        r = resultant(f, g, "y")
        s = sylvester_resultant(f, g, "y")
        assert r == s
        # a nonzero resultant certifies coprimality in y; spot-check at a point
        if not r.is_zero():
            continue


def test_sylvester_matrix_shape():
    f = Polynomial(XY, {(0, 3): 2, (1, 0): 1})
    g = Polynomial(XY, {(0, 2): 1, (0, 0): -5})
    m = sylvester_matrix(f, g, "y")
    assert len(m) == 5 and all(len(row) == 5 for row in m)
    assert m[0][0].constant_value() == 2


def test_resultant_specialization_property():
    # Res_y(f, g) evaluated at x0 equals the resultant of the specialized
    # univariate pair whenever neither leading y-coefficient vanishes at x0
    stream = Stream(0x59EC)
    done = 0
    while done < 30:
        f = _random_poly(stream, 2)
        g = _random_poly(stream, 2)
        if f.degree("y") < 1 or g.degree("y") < 1:
            continue
        x0 = Fraction(stream.int_in(-6, 6), stream.int_in(1, 4))
        lf = f.as_univariate("y")[f.degree("y")].evaluate({"x": x0})
        lg = g.as_univariate("y")[g.degree("y")].evaluate({"x": x0})
        if lf == 0 or lg == 0:
            continue
        R = resultant(f, g, "y")
        lhs = R.evaluate({"x": x0}) if not R.is_constant() else R.constant_value()
        fy = f.substitute({"x": x0}).drop_unused().with_variables(("y",))
        gy = g.substitute({"x": x0}).drop_unused().with_variables(("y",))
        rhs = sylvester_resultant(fy, gy, "y").constant_value()
        assert lhs == rhs
        done += 1


def test_resultant_multivariate_coefficients():
    TXY = ("t", "x", "y")
    f = Polynomial(TXY, {(1, 1, 1): 1, (0, 0, 2): 1})   # t x y + y^2
    g = Polynomial(TXY, {(0, 1, 1): 1, (2, 0, 0): 1})   # x y + t^2
    r = resultant(f, g, "y")
    s = sylvester_resultant(f, g, "y")
    assert r == s
    assert r.degree("y") == 0


def _coset_input(rng, vars_, k, a, m, monomial=False):
    """y^a Q(y^k) with deg Q = m and integer coefficients in the non-y variables.

    Every coefficient of Q has a nonzero constant term, so the exponent gaps
    have gcd exactly k when m >= 1; monomial=True keeps only y^(a + k m).
    """
    yi = vars_.index("y")
    terms = {}
    for j in ([m] if monomial else range(m + 1)):
        for i, v in enumerate(vars_):
            e = [0] * len(vars_)
            e[yi] = a + k * j
            if v != "y":
                e[i] = 1
            terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return Polynomial(vars_, terms)


def _low_y(p):
    i = p.vars.index("y")
    return min(e[i] for e in p.terms)


@pytest.mark.parametrize("vars_", [("t", "y"), ("s", "t", "y")])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_coset_resultant_matches_sylvester(vars_, k):
    # F = y^a Q1(y^k), G = y^b Q2(y^k) for every (a, b) in {0, 1, 2}^2, in both
    # argument orders, with monomials and Q of z-degree 0; k = 1 falls through
    rng = random.Random(1000 * k + len(vars_))
    # (deg Q1, deg Q2, F a monomial), small enough for the determinant
    shapes = [(1, 1, False), (0, 1, False), (1, 1, True)]
    if k < 3:
        shapes += [(2, 1, False), (0, 2, False)]
    done = 0
    for a in range(3):
        for b in range(3):
            for m1, m2, mono in shapes:
                f = _coset_input(rng, vars_, k, a, m1, monomial=mono)
                g = _coset_input(rng, vars_, k, b, m2)
                if f.degree("y") < 1 or g.degree("y") < 1:
                    continue
                for p, q in ((f, g), (g, f)):
                    expected = sylvester_resultant(p, q, "y")
                    assert resultant(p, q, "y") == expected
                    factors = resultant_factors(p, q, "y")
                    product = Polynomial.const(1, expected.vars)
                    for c, e in factors:
                        product = product * c ** e
                    assert product == expected
                    if _low_y(p) and _low_y(q):  # y divides both
                        assert expected.is_zero() and factors[-1][0].is_zero()
                    else:  # the PRS factor comes last, with exponent k
                        assert factors[-1][1] == k
                    if k == 1:  # the content scale, if any, and one PRS factor
                        assert [e for _, e in factors[:-1]] in ([], [1])
                        assert all(c.is_constant() for c, _ in factors[:-1])
                    done += 1
    assert done >= 48


@pytest.mark.parametrize("height", ["rho", "min"])
def test_coset_resultant_matches_sympy_on_delta3_projections(height):
    # the outer y-resultants of every pivot: one side has y-exponents in 3Z,
    # the other in 3Z or 1 + 3Z
    sympy = pytest.importorskip("sympy")
    from wronski.harness import resolve_height
    from wronski.systems import meta_system

    def to_sympy(p):
        return sympy.Poly.from_dict(dict(p.terms), sympy.symbols(p.vars)).as_expr()

    fs = meta_system(3, resolve_height(height, 3)).f
    for pivot in range(3):
        f0, g1, g2 = fs[pivot], *(fs[k] for k in range(3) if k != pivot)
        P1, P2 = resultant(f0, g1, "x"), resultant(f0, g2, "x")
        assert resultant_factors(P1, P2, "y")[-1][1] == 3
        ours = resultant(P1, P2, "y")
        assert not ours.is_zero()
        expected = sympy.resultant(to_sympy(P1), to_sympy(P2), sympy.Symbol("y"))
        assert sympy.expand(expected - to_sympy(ours)) == 0


# -- the one-point integer PRS ----------------------------------------------------------


def _counted_one_point(monkeypatch):
    calls = []
    one_point = resultants._one_point_resultant

    def counted(A, B):
        calls.append((len(A) - 1, len(B) - 1))
        return one_point(A, B)

    monkeypatch.setattr(resultants, "_one_point_resultant", counted)
    return calls


def _recorded_widths(monkeypatch):
    """(A, B, nbytes) of every slot width `_slot_bytes` chooses."""
    widths = []
    slot_bytes = resultants._slot_bytes

    def recorded(A, B):
        widths.append((A, B, slot_bytes(A, B)))
        return widths[-1][2]

    monkeypatch.setattr(resultants, "_slot_bytes", recorded)
    return widths


def _check_widths(widths):
    # W is never wider than the row bound alone gave, and 2^(W-1) still
    # exceeds every input coefficient and every coefficient of Res(A, B)
    assert widths
    for A, B, nbytes in widths:
        dA, dB = len(A) - 1, len(B) - 1
        norms_a = sum(sum(map(abs, c.terms.values())) ** 2 for c in A)
        norms_b = sum(sum(map(abs, c.terms.values())) ** 2 for c in B)
        assert nbytes <= (dB * norms_a.bit_length() + dA * norms_b.bit_length() + 1) // 2 // 8 + 1
        half = 2 ** (8 * nbytes - 1)
        vars_ = A[0].vars + ("y",)
        f, g = (Polynomial(vars_, {e + (i,): x for i, c in enumerate(P) for e, x in c.terms.items()})
                for P in (A, B))
        res = sylvester_resultant(f, g, "y")
        assert all(abs(x) < half for P in (A, B) for c in P for x in c.terms.values())
        assert all(abs(x) < half for x in res.terms.values())


@pytest.mark.parametrize("live", [0, 1, 2, 3])
def test_one_point_resultant_matches_sylvester_property(monkeypatch, live):
    # coefficients in `live` of the variables r, s, t; y is eliminated.  Each
    # variable has a lattice k in {1, 2, 3}, and coefficient i of an input
    # has exponents in the class (per-input offset + step i) mod k, so the
    # grading scales, strips and compresses; a middle coefficient may be zero
    calls = _counted_one_point(monkeypatch)
    grades = []
    grading = resultants._grading

    def recorded(*args):
        out = grading(*args)
        grades.append(out)
        return out

    monkeypatch.setattr(resultants, "_grading", recorded)
    widths = _recorded_widths(monkeypatch)
    vars_ = ("r", "s", "t", "y")
    rng = random.Random(0x1E7 + live)
    for trial in range(25):
        lattice = [rng.choice([1, 2, 3]) for _ in range(live)] + [0] * (3 - live)
        steps = [rng.randint(0, 2) * (k > 0) for k in lattice]

        def rand_y(dy):
            offsets = [rng.randint(0, 3) * (k > 0) for k in lattice]
            gap = rng.randint(1, dy - 1) if dy > 1 and rng.random() < 0.5 else None
            out = {}
            for j in range(dy + 1):
                if j == gap or (j not in (0, dy) and rng.random() < 0.2):
                    continue
                for _ in range(rng.randint(1, 4)):
                    e = tuple(o + s * j + k * rng.randint(0, 2)
                              for o, s, k in zip(offsets, steps, lattice))
                    out[e + (j,)] = rng.choice([-7, -3, -2, -1, 1, 2, 5, 9])
            return Polynomial(vars_, out)

        da = rng.randint(1, 3)
        f, g = rand_y(da), rand_y(rng.randint(1, 6 - da))
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y"), (live, trial)
    assert len(calls) >= 20
    _check_widths(widths)
    if live:  # each step of the grading ran: a scale, a strip, a compression
        assert any(c for _, c, _, _ in grades)
        assert any(any(lows) for _, _, _, lows in grades)
        assert any(k > 1 for _, _, k, _ in grades)


def _scanned_grading(spans, gap, dA, dB, scales):
    """(D, c, k, (m_A, m_B)) with the fewest slots D over the given scales, each graded directly."""
    best = None
    for c in scales:
        k, lows, tops = gap, [], []
        for rows in spans:
            low = min(lo[0] + c * i for i, lo, _ in rows)
            for i, lo, _ in rows:
                k = math.gcd(k, lo[0] + c * i - low)
            lows.append(low)
            tops.append(max(hi[0] + c * i for i, _, hi in rows) - low)
        slots = (dB * tops[0] + dA * tops[1]) // k + 1 if k else 1
        if best is None or slots < best[0]:
            best = (slots, c, k, lows)
    return best


def test_grading_finds_the_fewest_slots_over_all_scales():
    # rows (i, lowest, highest exponent) whose exponents drift by a random
    # slope per step of i, so the best scale is often negative; gap is the
    # gcd of the spreads inside rows (0: every coefficient is one term)
    rng = random.Random(0x7117)
    negative = 0
    for trial in range(600):
        lattice = rng.choice([0, 1, 2, 3, 4, 6])
        dA, dB = rng.randint(1, 6), rng.randint(1, 6)
        spans = []
        for d in (dA, dB):
            slope, rows = rng.randint(-6, 6), []
            for i in range(rng.choice([0, 0, 1]), d + 1):
                if 0 < i < d and rng.random() < 0.3:
                    continue
                lo = 6 * d + slope * i + rng.randint(0, 8)
                rows.append((i, [lo], [lo + lattice * rng.randint(0, 3)]))
            spans.append(rows)
        if spans[0][0][0] and spans[1][0][0]:  # y divides both: no resultant to grade
            continue
        gap = math.gcd(*(hi[0] - lo[0] for rows in spans for _, lo, hi in rows))
        top = max(hi[0] for rows in spans for _, _, hi in rows)
        got = resultants._grading(spans, 0, gap, dA, dB)
        scales = range(-2 * top - gap, 2 * top + gap + 1)
        assert got[0] == _scanned_grading(spans, gap, dA, dB, scales)[0], (trial, spans)
        assert got == _scanned_grading(spans, gap, dA, dB, [got[1]]), (trial, spans)
        negative += got[0] < _scanned_grading(spans, gap, dA, dB, range(0, 2 * top + gap + 1))[0]
    assert negative > 50  # spans whose fewest slots need a negative scale


@pytest.mark.parametrize("lattice", [1, 2, 3])
def test_resultant_on_tilted_supports(monkeypatch, lattice):
    # y-coefficient i of each input is t^(base + slope i) times a polynomial
    # in t^lattice (and in s), so the support is sheared along i and the
    # fewest slots come from scaling y by a negative or a positive power of t
    grades = []
    grading = resultants._grading

    def recorded(*args):
        grades.append(grading(*args))
        return grades[-1]

    monkeypatch.setattr(resultants, "_grading", recorded)
    widths = _recorded_widths(monkeypatch)
    vars_ = ("s", "t", "y")
    rng = random.Random(0x5EA + lattice)

    def tilted(dy, slope):
        out = {}
        for i in range(dy + 1):
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 1), 3 * dy + slope * i + lattice * rng.randint(0, 2), i)
                out[e] = rng.choice([-5, -2, -1, 1, 3, 4])
        return Polynomial(vars_, out)

    for trial in range(20):
        slope = rng.choice([-3, -2, 2, 3, 5])
        da = rng.randint(1, 3)
        f, g = tilted(da, slope), tilted(rng.randint(1, 5 - da), slope)
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y"), (lattice, trial)
    _check_widths(widths)
    assert any(c < 0 for _, c, _, _ in grades) and any(c > 0 for _, c, _, _ in grades)


@pytest.mark.parametrize("a, b", [(1, 1), (2, 3), (5, 2), (2, 4), (6, 9)])
def test_one_point_degree_bound_is_attained(monkeypatch, a, b):
    # Res_y(1 + t^a + y, 1 + t^b y) = 1 - t^b - t^(a+b): the gap a inside a
    # coefficient makes every usable k divide a, and no scale c beats c = 0
    # (c = -b ties), so the top term sits in the last slot D - 1 of the
    # compressed lattice (D = (dB a + dA b) / gcd(a, b) + 1)
    digits = []
    unpack = resultants._unpack

    def recorded(x, n, nbytes):
        digits.append(unpack(x, n, nbytes))
        return digits[-1]

    monkeypatch.setattr(resultants, "_unpack", recorded)
    t = Polynomial.variable("t", ("t", "y"))
    y = Polynomial.variable("y", ("t", "y"))
    f, g = 1 + t ** a + y, 1 + t ** b * y
    r = resultant(f, g, "y")
    assert r == 1 - t ** b - t ** (a + b) == sylvester_resultant(f, g, "y")
    assert [len(d) for d in digits] == [(a + b) // math.gcd(a, b) + 1]
    assert digits[0][-1] == -1
    # Res_y(t^a + y, 1 + t^b y) = 1 - t^(a+b): y -> t^a y turns the inputs
    # into t^a (1 + y) and 1 + t^(a+b) y (y -> t^-b y, the tie kept at
    # a >= b, into t^-b (t^(a+b) + y) and 1 + y), stripped and compressed to a
    # resultant 1 - s in D = 2 slots (3 before the grading at a = b = 1), the
    # top term again in the last
    digits.clear()
    f, g = t ** a + y, 1 + t ** b * y
    r = resultant(f, g, "y")
    assert r == 1 - t ** (a + b) == sylvester_resultant(f, g, "y")
    assert digits == [[1, -1]]


def test_one_point_prs_honours_a_past_deadline():
    TY = ("t", "y")
    f = Polynomial(TY, {(0, 3): 1, (1, 1): 2, (0, 0): -1})
    g = Polynomial(TY, {(0, 2): 3, (2, 0): 1})
    with deadline(time.monotonic() - 1), pytest.raises(TimeoutError) as info:
        resultant(f, g, "y")
    assert info.traceback[-2].name == "_prs_resultant"
    with deadline(time.monotonic() + 60):
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")


def test_one_point_refuses_a_vanishing_leading_coefficient(monkeypatch):
    # cannot happen for the chosen point; the guard is exercised by forcing it
    monkeypatch.setattr(resultants, "_pack", lambda a, nbytes: 0)
    TY = ("t", "y")
    with pytest.raises(ArithmeticError):
        resultant(Polynomial(TY, {(1, 1): 1, (0, 0): 1}), Polynomial(TY, {(0, 2): 1, (1, 0): 1}), "y")


# -- the batched PRS ----------------------------------------------------------------------


def _scalar_prs_resultant(A, B):
    """Res(A, B) of two integer lists of positive degree by one scalar subresultant PRS.

    The routine the batched `resultants._prs_resultant` replaced: the oracle.
    """
    sign = 1
    if len(A) < len(B):
        if (len(A) - 1) * (len(B) - 1) % 2:
            sign = -sign
        A, B = B, A
    g = h = 1
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 and dB % 2:
            sign = -sign
        r = dprem(A, B)
        if not r:
            return 0
        A, B = B, dquo_exact(r, g * h ** delta)
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = dquo_exact([g ** delta], h ** (delta - 1))[0]
        if len(B) == 1:
            break
    dA = len(A) - 1
    return sign * dquo_exact([B[0] ** dA], h ** (dA - 1))[0]


def _columns(rows):
    """The per-point coefficient lists as columns, coefficient i of every point in one."""
    return [list(col) for col in zip(*rows)]


def test_batched_prs_matches_the_scalar_oracle(monkeypatch):
    # random points, and planted ones: with A = y^3 + y + 1, B = y^2 + 1 the
    # first remainder drops from degree 1 to 0; with A = y^4 + 3y + 2,
    # B = y^3 + 1 from degree 2 to 1; with A = y^3 + y, B = y^2 + 1 it is 0
    planted = {(3, 2): [([1, 1, 0, 1], [1, 0, 1]), ([0, 1, 0, 1], [1, 0, 1])],
               (4, 3): [([2, 3, 0, 0, 1], [1, 0, 0, 1])]}
    rng = random.Random(0xBA7C)
    split = []
    regrouped = resultants._regrouped

    def recorded(points, *rest):
        split.append(len(points))
        return regrouped(points, *rest)

    monkeypatch.setattr(resultants, "_regrouped", recorded)
    shapes = list(planted) * 6 + [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(48)]
    for trial, (dA, dB) in enumerate(shapes):
        bits = rng.choice([3, 40, 300])
        rows = []
        for _ in range(rng.randint(1, 12)):
            a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(dA + 1)]
            b = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(dB + 1)]
            a[-1], b[-1] = a[-1] or 1, b[-1] or -1
            rows.append((a, b))
        for a, b in planted.get((dA, dB), ()):
            rows.insert(rng.randint(0, len(rows)), (a, b))
        got = resultants._prs_resultant(_columns([a for a, _ in rows]),
                                        _columns([b for _, b in rows]))
        assert got == [_scalar_prs_resultant(a, b) for a, b in rows], trial
    assert len(split) >= 12  # each planted batch split at least once
    assert [_scalar_prs_resultant(a, b) for a, b in planted[(3, 2)]][1] == 0


def test_a_batch_of_one_keeps_the_two_adic_quotient(monkeypatch):
    # the cut lowered to 64 bits: the PRS's exact divisions of a 300-bit
    # batch of one are 2-adic, one inverse per division of the whole remainder
    seen = []
    inverse = realroots._inverse_2adic

    def recorded(b, nbits):
        seen.append(nbits)
        return inverse(b, nbits)

    monkeypatch.setattr(realroots, "QUOTIENT_2ADIC_BITS", 64)
    monkeypatch.setattr(realroots, "_inverse_2adic", recorded)
    rng = random.Random(0x2AD1C)
    for dA, dB in ((5, 4), (4, 4), (3, 6)):
        a = [rng.getrandbits(300) - 2 ** 299 for _ in range(dA + 1)]
        b = [rng.getrandbits(300) - 2 ** 299 for _ in range(dB + 1)]
        expected = _scalar_prs_resultant(a, b)
        seen.clear()
        assert resultants._prs_resultant([[c] for c in a], [[c] for c in b]) == [expected]
        assert seen


# -- the plane-curve resultant by evaluation and interpolation ------------------------


def _rows(p):
    """Rows of a curve in x, y: row j is the integer x-list of its y^j coefficient."""
    return [c.dense("x") for c in p.as_univariate("y")]


def _curve(rng, m, bits=8):
    """A random integer curve of total degree m with a constant leading y-coefficient."""
    terms = {(i, j): rng.randint(-2 ** bits, 2 ** bits)
             for j in range(m + 1) for i in range(m - j + 1) if rng.random() < 0.8}
    terms[(0, m)] = rng.choice([-3, -1, 1, 2, 5])
    return Polynomial(XY, terms)


def test_interpolated_resultant_matches_resultant_and_sylvester():
    rng = random.Random(0x1E7)
    full_degree = 0
    for m in range(1, 6):
        for n in range(1, 6):
            for trial in range(3):
                f, g = _curve(rng, m, rng.choice([2, 40])), _curve(rng, n, rng.choice([2, 40]))
                u = resultants.interpolated_resultant(_rows(f), _rows(g))
                assert u == resultant(f, g, "y").dense("x"), (m, n, trial)
                assert len(u) - 1 <= m * n
                full_degree += len(u) - 1 == m * n
                if m + n <= 7 and trial == 0:
                    assert u == sylvester_resultant(f, g, "y").dense("x"), (m, n)
    assert full_degree >= 60


def test_interpolated_resultant_special_cases():
    x = Polynomial.variable("x", XY)
    y = Polynomial.variable("y", XY)
    circle, line = x ** 2 + y ** 2 - 1, y - 2 * x
    # Res_y = x^2 + (2x)^2 - 1 reaches the Bezout degree mn = 2
    assert resultants.interpolated_resultant(_rows(circle), _rows(line)) == [-1, 0, 5]
    # parallel lines never meet: a nonzero constant
    assert resultants.interpolated_resultant(_rows(y + x), _rows(y + x + 1)) in ([1], [-1])
    # a shared factor: zero
    shared = y ** 2 + 3 * x * y - x + 7
    rng = random.Random(5)
    for m, n in ((1, 1), (2, 3), (3, 2)):
        f, g = shared * _curve(rng, m), shared * _curve(rng, n)
        assert resultants.interpolated_resultant(_rows(f), _rows(g)) == []
