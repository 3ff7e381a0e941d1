import functools
import math
from fractions import Fraction as Q

import pytest

from wronski import elimination
from wronski.elimination import (_integer_grid, _shear_search, _tilted, count_real_intersections,
                                 sheared_resultant)
from wronski.errors import DegenerateInstanceError, DomainError, EliminationError
from wronski.heights import HeightFunction
from wronski.lattice import hexagon_example
from wronski.plotting import exact_intersection_markers
from wronski.polynomial import Polynomial
from wronski.realroots import UnivariatePolynomial, count_real_roots
from wronski.resultants import resultant
from wronski.rng import Stream, derive_seed
from wronski.systems import wronski_from_points, wronski_pair

XY = ("x", "y")


def test_circle_line():
    circle = Polynomial(XY, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    diag = Polynomial(XY, {(0, 1): 1, (1, 0): -1})
    assert count_real_intersections(circle, diag) == (2, 2)


def test_circle_far_line():
    circle = Polynomial(XY, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    far = Polynomial(XY, {(0, 1): 1, (1, 0): 1, (0, 0): -10})
    assert count_real_intersections(circle, far) == (0, 2)


def test_common_component_detected():
    circle = Polynomial(XY, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    doubled = circle * Polynomial(XY, {(1, 0): 1, (0, 1): 3, (0, 0): 7})
    with pytest.raises(EliminationError):
        count_real_intersections(circle, doubled)


def test_tangency_raises_degenerate():
    parabola = Polynomial(XY, {(0, 1): 1, (2, 0): -1})   # y - x^2
    axis = Polynomial(XY, {(0, 1): 1})                   # y
    with pytest.raises(DegenerateInstanceError):
        count_real_intersections(parabola, axis)


FIGURE_CASES = [
    (3, (Q("-3.14"), Q("-8.13"), Q("3.61")), (Q("11.13"), Q("-9.34"), Q("1.82")), Q("0.98"), 3),
    (5, (Q("0.79"), Q("0.11"), Q("-0.72")), (Q("0.37"), Q("0.84"), Q("-0.97")), Q("0.6"), 5),
    (4, (Q("0.99"), Q("2.98"), Q("1.95")), (Q("14.46"), Q("1.57"), Q("2.21")), Q("0.98"), 0),
    (4, (Q("-10.46"), Q("-1.07"), Q("9.43")), (Q("12.62"), Q("9.97"), Q("-0.86")), Q("0.98"), 0),
]

# exact_intersection_markers on FIGURE_CASES, as computed before counting and
# marking shared one shear search
FIGURE_MARKERS = [
    [(-0.9089293481371543, 0.8530089119960784), (-0.9971149280948408, -1.2419766339288092),
     (1.3233964584734625, -1.132135325733271)],
    [(116.8930748804105, 195.76036151852395), (2.2589627885895993, 51.50079179946004),
     (0.5592636318619455, 3.2407459187744765), (7.584027344093685, 0.8367171431636982),
     (115.36501054598064, 12.722163573556438)],
    [],
    [],
]


def _figure_pair(delta, c, cp, t):
    return wronski_pair(delta, HeightFunction.rho(delta), c, cp, t).polys


def test_figure_parameter_counts():
    for delta, c, cp, t, expected in FIGURE_CASES:
        count, total = count_real_intersections(*_figure_pair(delta, c, cp, t))
        assert count == expected
        assert total == delta * delta


def test_figure_markers_pinned():
    for (delta, c, cp, t, expected), pinned in zip(FIGURE_CASES, FIGURE_MARKERS):
        markers = exact_intersection_markers(*_figure_pair(delta, c, cp, t))
        assert len(markers) == expected
        flat = [v for m in markers for v in m]
        assert flat == pytest.approx([v for m in pinned for v in m], rel=1e-9, abs=1e-9)


def test_curves_that_do_not_meet():
    line = Polynomial(XY, {(0, 1): 1, (1, 0): 1})
    shifted = Polynomial(XY, {(0, 1): 1, (1, 0): 1, (0, 0): 1})
    assert count_real_intersections(line, shifted) == (0, 0)
    with pytest.raises(DegenerateInstanceError):
        exact_intersection_markers(line, shifted)


def test_markers_on_a_shared_component_are_degenerate():
    circle = Polynomial(XY, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    doubled = circle * Polynomial(XY, {(1, 0): 1, (0, 1): 3, (0, 0): 7})
    with pytest.raises(DegenerateInstanceError):
        exact_intersection_markers(circle, doubled)


def _random_c(stream):
    while True:
        vals = tuple(Q(stream.int_in(-50, 50), stream.int_in(1, 16)) for _ in range(3))
        if all(v != 0 for v in vals):
            return vals


def test_kushnirenko_totals_and_parity():
    stream = Stream(0xC0DE)
    done = 0
    while done < 20:
        delta = 2 + done % 2
        c = _random_c(stream)
        cp = _random_c(stream)
        t = Q(stream.int_in(1, 99), 100)
        pair = wronski_pair(delta, HeightFunction.rho(delta), c, cp, t)
        try:
            count, total = count_real_intersections(*pair.polys, seed=done)
        except DegenerateInstanceError:
            continue
        assert total == delta * delta
        assert count % 2 == (delta * delta) % 2
        done += 1


def test_hexagon_counts_land_in_two_or_six():
    hexa = hexagon_example()
    stream = Stream(0x4E8)
    for k in range(12):
        t = Q(stream.int_in(1, 2 ** 20), 2 ** 21)
        if stream.int_in(0, 1):
            t = -t
        c = [Q(stream.int_in(-50 * 64, 50 * 64), 64) for _ in range(6)]
        if any(v == 0 for v in c) or t == 0:
            continue
        w1 = wronski_from_points(hexa.points, hexa.coloring, hexa.heights, c[:3], t=t)
        w2 = wronski_from_points(hexa.points, hexa.coloring, hexa.heights, c[3:], t=t)
        count, total = count_real_intersections(w1, w2, seed=k)
        assert total == 6
        assert count in (2, 6)


def _sheared_oracle(f, g, seed):
    """The first usable shear by sparse substitution and the general resultant."""
    stream = Stream(derive_seed(seed, 0x5EA2))
    shears = []
    while len(shears) < 8:
        s = stream.nonzero_int(9)
        if s not in shears:
            shears.append(s)
    x = Polynomial.variable("x", XY)
    y = Polynomial.variable("y", XY)
    for s in shears:
        fs, gs = (p.substitute({"x": x + s * y}) for p in (f, g))
        if any(p.degree("y") != p.total_degree() or not p.as_univariate("y")[-1].is_constant()
               for p in (fs, gs)):
            continue
        R = resultant(fs, gs, "y")
        if R.is_zero():
            continue
        u = UnivariatePolynomial(R.dense("x"))
        if u.is_squarefree():
            return s, fs, gs, u
    return None


def test_sheared_resultant_matches_the_substitution_oracle():
    stream = Stream(0x5EA8)
    done = 0
    while done < 12:
        delta = 3 + done % 3
        c = _random_c(stream)
        cp = _random_c(stream)
        t = Q(stream.int_in(1, 99), 100)
        f, g = wronski_pair(delta, HeightFunction.rho(delta), c, cp, t).polys
        oracle = _sheared_oracle(f, g, done)
        if oracle is None:
            continue
        s, A, B, u = sheared_resultant(f, g, seed=done)
        assert s == oracle[0]
        # u and the rows are nonzero rational multiples of the oracle's
        assert u.int_primitive() == oracle[3].int_primitive()
        for rows, p in ((A, oracle[1]), (B, oracle[2])):
            expected = [c.dense("x") for c in p.as_univariate("y")]
            scale = Q(rows[-1][0]) / expected[-1][0]
            assert rows == [[scale * c for c in row] for row in expected]
        done += 1


def _polynomial_integer_grid(p):
    """The integer grid by Polynomial operations, as it was computed before: the oracle."""
    try:
        q = p.drop_unused().with_variables(XY)
    except ValueError as exc:
        raise DomainError("a plane curve lives in x and y alone") from exc
    c = q.content()
    return {e: (a / c).numerator for e, a in q.terms.items()}


def test_integer_grid_matches_the_polynomial_oracle():
    # rational curves in x, y, one of them or with a third variable that does
    # not occur; one that does raises on both sides
    stream = Stream(0x96D)
    orders = [("x", "y"), ("y", "x"), ("t", "x", "y"), ("x",), ("y", "s")]
    for trial in range(200):
        variables = orders[trial % len(orders)]
        terms = {}
        for _ in range(stream.int_in(1, 12)):
            e = tuple(stream.int_in(0, 4) if v in XY else 0 for v in variables)
            den = stream.int_in(1, 40)
            terms[e] = Q(stream.int_in(-10 ** 6, 10 ** 6), den) * stream.int_in(1, 30) ** 3
        p = Polynomial(variables, terms)
        if p.is_zero():
            continue
        assert _integer_grid(p) == _polynomial_integer_grid(p), trial
        if any(v not in XY for v in variables):
            e = next(iter(p.terms))
            third = Polynomial(variables, {**p.terms, tuple(k + (v not in XY) for k, v in
                                                           zip(e, variables)): 1})
            for grid in (_integer_grid, _polynomial_integer_grid):
                with pytest.raises(DomainError, match="x and y alone"):
                    grid(third)


TABLE_PRIMES = [p for p in range(2, 128) if all(p % q for q in range(2, p))]
PRIMES_TO_200 = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


@functools.lru_cache(maxsize=None)
def _tilt_family():
    """(label, f, g, seed) for the tilt tests: seeded rho pairs at delta 2-7 with
    t = +-m/100, t = 49/50 and t = 131/100 (131 is prime and above the table),
    hexagon pairs and the four figure pairs."""
    stream = Stream(0x7117)
    cases = []
    for delta, n in ((2, 4), (3, 4), (4, 3), (5, 3), (6, 2), (7, 1)):
        for k in range(n):
            t = Q(stream.int_in(1, 99), 100) * (1 if stream.int_in(0, 1) else -1)
            cases.append((f"rho {delta} t={t}", delta, t))
    for delta in (3, 4):
        cases.append((f"rho {delta} t=49/50", delta, Q(49, 50)))
        cases.append((f"rho {delta} t=131/100", delta, Q(131, 100)))
    out = []
    for label, delta, t in cases:
        pair = wronski_pair(delta, HeightFunction.rho(delta), _random_c(stream), _random_c(stream), t)
        out.append((label, *pair.polys, len(out)))
    hexa = hexagon_example()
    for k in range(3):
        t = Q(stream.int_in(1, 2 ** 20), 2 ** 21) * (1 if k % 2 else -1)
        c = [Q(stream.int_in(-50 * 64, 50 * 64) or 1, 64) for _ in range(6)]
        pair = [wronski_from_points(hexa.points, hexa.coloring, hexa.heights, cs, t=t)
                for cs in (c[:3], c[3:])]
        out.append((f"hexagon t={t}", *pair, k))
    for delta, c, cp, t, _ in FIGURE_CASES:
        out.append((f"figure {delta} t={t}", *_figure_pair(delta, c, cp, t), 0))
    return tuple(out)


def _valuation(a, p):
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _spreads(grid):
    """{p: largest minus least valuation of p over the grid} for the primes below 200."""
    out = {}
    for p in PRIMES_TO_200:
        vals = [_valuation(a, p) for a in grid.values()]
        out[p] = max(vals) - min(vals)
    return out


def test_tilt_keeps_counts_and_degrees():
    # the count on the tilted grids against the untilted shear search and root count
    checked = 0
    for label, f, g, seed in _tilt_family():
        try:
            u = sheared_resultant(f, g, seed)[3]
        except DegenerateInstanceError:
            continue
        assert count_real_intersections(f, g, seed) == (count_real_roots(u), u.degree()), label
        checked += 1
    assert checked >= 25


def test_tilted_grids_are_the_scaled_curves():
    # both grids are those of F(lambda x, mu y), G(lambda x, mu y) for the reported tilt
    x = Polynomial.variable("x", XY)
    y = Polynomial.variable("y", XY)
    tilted = 0
    for label, f, g, _ in _tilt_family():
        grids, tilts = _tilted(f, g)
        lam = mu = Q(1)
        for p, a, b in tilts:
            assert p in TABLE_PRIMES and (a, b) != (0, 0), label
            lam *= Q(p) ** a
            mu *= Q(p) ** b
        scaled = [p.substitute({"x": lam * x, "y": mu * y}) for p in (f, g)]
        assert grids == [_polynomial_integer_grid(p) for p in scaled], label
        tilted += bool(tilts)
    assert tilted >= 20


def test_tilt_never_raises_a_spread():
    # per prime and grid the spread never grows, and shrinks for every tilted
    # prime; with no prime to tilt the grids come back unchanged
    untouched = 0
    for label, f, g, _ in _tilt_family():
        grids, tilts = _tilted(f, g)
        before = [_spreads(_integer_grid(p)) for p in (f, g)]
        after = [_spreads(grid) for grid in grids]
        primes = {p for p, _, _ in tilts}
        for old, new in zip(before, after):
            for p in PRIMES_TO_200:
                assert new[p] < old[p] if p in primes else new[p] == old[p], (label, p)
        if not tilts:
            assert grids == [_integer_grid(p) for p in (f, g)], label
            untouched += 1
        if "131/100" in label:
            assert 131 not in primes and before[0][131] > 0, label
    assert untouched >= 3  # the hexagon pairs: their extreme points (0, 0), (2, 2) fix no plane


def test_tilt_shrinks_the_figure_resultants():
    # the resultant of the first usable shear, untilted and tilted, in bits
    def bits(u):
        return max(abs(c).bit_length() for c in u.coeffs)

    for (delta, c, cp, t, _), untilted, bound in zip(FIGURE_CASES, (379, 640), (200, 300)):
        f, g = _figure_pair(delta, c, cp, t)
        assert bits(sheared_resultant(f, g)[3]) == untilted
        assert bits(_shear_search(_tilted(f, g)[0], 0)[3]) <= bound


def test_tilt_table():
    # the literal tables are the primes below 128 and their product
    assert list(elimination._TILT_PRIMES) == TABLE_PRIMES
    assert elimination._TILT_PRIMORIAL == math.prod(TABLE_PRIMES)
