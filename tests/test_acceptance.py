"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 eliminates
the delta-5 meta-system within 1800 s and fails on a timeout, on fewer than
two nonzero real roots, or on a least positive root outside [0.95, 1.05].
"""

import functools
import json
import time
import zlib
from fractions import Fraction as Q

import pytest

from wronski import deadline
from wronski.elimination import certify_no_real_solutions, count_real_intersections, eliminate_to_t
from wronski.harness import monte_carlo_hexagon
from wronski.heights import (HeightFunction, alcoved_lift, in_secondary_cone,
                             minimal_height, rho, secondary_cone_facets, tau_inverse)
from wronski.lattice import (f_vector, hexagon_example, honeycomb_triangulation,
                             lattice_points, signature)
from wronski.orient import facet_system, orientable, standard_triangle
from wronski.polynomial import Polynomial
from wronski.realroots import (UnivariatePolynomial, count_real_roots, refine_interval,
                               sturm_count)
from wronski.resultants import resultant, sylvester_resultant
from wronski.rng import Stream
from wronski.systems import meta_system, meta_system_from_points, wronski_pair

from planted import from_roots


def _report(num: int, ok: bool, text: str):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_combinatorics():
    start = time.monotonic()
    for d in range(1, 31):
        t13n = honeycomb_triangulation(d)
        fv = f_vector(t13n)
        assert fv.vertices == (d + 1) * (d + 2) // 2
        assert fv.edges == 3 * (d * d + d) // 2
        assert fv.triangles == d * d
        assert fv.interior_vertices == (d - 1) * (d - 2) // 2
        assert fv.interior_edges == 3 * (d * d - d) // 2
        assert signature(t13n) == d
        assert len(secondary_cone_facets(d)) == 3 * (d * d - d) // 2
    elapsed = time.monotonic() - start
    _report(1, elapsed < 5.0,
            f"f-vectors, signatures, cone facet counts exact for delta 1..30 in {elapsed:.2f}s")


def test_criterion_2_orientability():
    start = time.monotonic()
    parity_ok = all(orientable(facet_system(standard_triangle(d))) == (d % 2 == 1)
                    for d in range(1, 21))
    hexa_ok = orientable(facet_system(hexagon_example().points))
    elapsed = time.monotonic() - start
    _report(2, parity_ok and hexa_ok and elapsed < 1.0,
            f"orientable iff delta odd (1..20), hexagon orientable, in {elapsed:.2f}s")


def test_criterion_3_cone_membership():
    start = time.monotonic()
    for d in range(1, 31):
        ok_rho, _ = in_secondary_cone(HeightFunction.rho(d))
        ok_min, _ = in_secondary_cone(minimal_height(d))
        assert ok_rho and ok_min, d
    tau_ok = all(alcoved_lift(tau_inverse(p)) == 2 * rho(p) for p in lattice_points(10))
    elapsed = time.monotonic() - start
    _report(3, tau_ok and elapsed < 5.0,
            f"rho and minimal heights in the cone for delta <= 30, "
            f"shear relation exact on 10*Delta_2, in {elapsed:.2f}s")


def test_criterion_4_hexagon_meta_system():
    start = time.monotonic()
    hexa = hexagon_example()
    system = meta_system_from_points(hexa.points, hexa.coloring, hexa.heights)
    TXY = ("t", "x", "y")
    verbatim = (
        system.f[0] == Polynomial(TXY, {(3, 0, 0): 1, (0, 1, 1): 1, (3, 2, 2): 1})
        and system.f[1] == Polynomial(TXY, {(1, 1, 0): 1, (1, 1, 2): 1})
        and system.f[2] == Polynomial(TXY, {(1, 0, 1): 1, (1, 2, 1): 1})
    )
    cert = certify_no_real_solutions(system)
    elapsed = time.monotonic() - start
    _report(4, verbatim and cert.certified and elapsed < 10.0,
            f"hexagon slices reproduced verbatim; no real solutions with t != 0 "
            f"certified ({cert.method}) in {elapsed:.2f}s")


def test_criterion_5_delta3_row():
    start = time.monotonic()
    system = meta_system(3, HeightFunction.rho(3))
    raw = eliminate_to_t(system)
    refined = eliminate_to_t(system, refine=2)
    nonzero = not refined.E.is_zero() and not raw.E.is_zero()
    no_roots = sturm_count(refined.E, (0, 1)) == 0
    elapsed = time.monotonic() - start
    _report(5, nonzero and no_roots and elapsed < 60.0,
            f"delta=3, quadratic height: E nonzero (raw degree {raw.E.degree()}, "
            f"refined degree {refined.E.degree()}), zero real roots in (0,1), "
            f"in {elapsed:.2f}s")


@functools.cache
def hexagon_campaign():
    return monte_carlo_hexagon(2000, seed=20260811)


def test_criterion_6_monte_carlo_hexagon():
    start = time.monotonic()
    n = 2000
    rec = hexagon_campaign()
    hist = {int(k): v for k, v in rec.aggregate["histogram"].items()}
    only_2_6 = set(hist) <= {2, 6}
    share2 = hist.get(2, 0) / n
    elapsed = time.monotonic() - start
    _report(6, only_2_6 and 0.73 <= share2 <= 0.85 and elapsed < 600.0,
            f"n={n}: histogram {hist}, share of 2-counts {share2:.3f} in [0.73, 0.85], "
            f"no 0 or 4 counts, in {elapsed:.1f}s")


def test_hexagon_campaign_payload_pinned():
    # criterion 6's run, shared: CRC32 of its sorted-key payload_json()
    rec = hexagon_campaign()
    assert rec.aggregate["histogram"] == {"2": 1582, "6": 418}
    assert zlib.crc32(json.dumps(rec.payload_json(), sort_keys=True).encode()) == 3460740935


def test_criterion_7_figure_reproductions():
    start = time.monotonic()
    cases = [
        (3, ("-3.14", "-8.13", "3.61"), ("11.13", "-9.34", "1.82"), "0.98", 3),
        (5, ("0.79", "0.11", "-0.72"), ("0.37", "0.84", "-0.97"), "0.6", 5),
        (4, ("0.99", "2.98", "1.95"), ("14.46", "1.57", "2.21"), "0.98", 0),
        (4, ("-10.46", "-1.07", "9.43"), ("12.62", "9.97", "-0.86"), "0.98", 0),
    ]
    got = []
    for delta, c, cp, t, expected in cases:
        pair = wronski_pair(delta, HeightFunction.rho(delta),
                            tuple(map(Q, c)), tuple(map(Q, cp)), Q(t))
        count, total = count_real_intersections(*pair.polys)
        got.append((delta, count, expected, total))
        assert count == expected and total == delta * delta, got[-1]
    elapsed = time.monotonic() - start
    _report(7, elapsed < 300.0,
            f"figure parameters give exactly 3, 5, 0, 0 real intersections in {elapsed:.2f}s")


def test_criterion_8_kushnirenko_and_parity():
    start = time.monotonic()
    stream = Stream(0xACC8)
    done = 0
    while done < 20:
        delta = 2 + done % 2
        c = tuple(Q(stream.int_in(-50, 50), stream.int_in(1, 16)) for _ in range(3))
        cp = tuple(Q(stream.int_in(-50, 50), stream.int_in(1, 16)) for _ in range(3))
        if any(v == 0 for v in c + cp):
            continue
        t = Q(stream.int_in(1, 99), 100)
        pair = wronski_pair(delta, HeightFunction.rho(delta), c, cp, t)
        count, total = count_real_intersections(*pair.polys, seed=done)
        assert total == delta * delta
        assert count % 2 == (delta * delta) % 2
        done += 1
    elapsed = time.monotonic() - start
    _report(8, elapsed < 120.0,
            f"20 random pairs: totals equal delta^2 and real counts have the right "
            f"parity, in {elapsed:.1f}s")


def test_criterion_9_delta5_stretch():
    start = time.monotonic()
    system = meta_system(5, HeightFunction.rho(5))
    with deadline(start + 1800.0):
        result = eliminate_to_t(system, refine=2)
    cands = result.real_root_candidates(include_zero=False,
                                        refine_width=Q(1, 10000))
    positives = [iv for iv in cands
                 if (iv.is_point and iv.lo > 0) or (not iv.is_point and iv.lo >= 0)]
    elapsed = time.monotonic() - start
    assert positives, "criterion 9: no positive real root"
    least = positives[0]
    in_band = Q(95, 100) <= least.lo and least.hi <= Q(105, 100)
    _report(9, len(cands) >= 2 and in_band and elapsed <= 1800.0,
            f"delta=5: {len(cands)} nonzero real roots (>= 2), least positive root in "
            f"[{float(least.lo):.4f}, {float(least.hi):.4f}] within [0.95, 1.05], "
            f"in {elapsed:.1f}s")


def test_criterion_10_oracle_suites():
    start = time.monotonic()
    stream = Stream(0x0AC1E)
    # Sturm counts against polynomials with planted roots
    for _ in range(200):
        k = stream.int_in(1, 5)
        roots = set()
        while len(roots) < k:
            roots.add(Q(stream.int_in(-24, 24), stream.int_in(1, 10)))
        p = from_roots(sorted(roots))
        if stream.int_in(0, 1):
            a, b, c = stream.int_in(1, 4), stream.int_in(-4, 4), stream.int_in(2, 9)
            while b * b - 4 * a * c >= 0:
                c += 1
            p = p * UnivariatePolynomial([c, b, a])
        assert count_real_roots(p) == k
    # subresultant PRS against direct Sylvester determinants, degree <= 4
    XY = ("x", "y")
    done = 0
    while done < 100:
        dy_f = stream.int_in(1, 4)
        dy_g = stream.int_in(1, 8 - dy_f if dy_f < 4 else 4)
        f_terms = {}
        g_terms = {}
        for j in range(dy_f + 1):
            for i in range(3):
                if stream.int_in(0, 2):
                    f_terms[(i, j)] = stream.int_in(-6, 6)
        for j in range(dy_g + 1):
            for i in range(3):
                if stream.int_in(0, 2):
                    g_terms[(i, j)] = stream.int_in(-6, 6)
        f = Polynomial(XY, f_terms)
        g = Polynomial(XY, g_terms)
        if f.degree("y") < 1 or g.degree("y") < 1 or f.degree("y") + g.degree("y") > 8:
            continue
        assert resultant(f, g, "y") == sylvester_resultant(f, g, "y")
        done += 1
    elapsed = time.monotonic() - start
    _report(10, elapsed < 60.0,
            f"200 Sturm oracle cases and 100 Sylvester cross-checks exact in {elapsed:.1f}s")
