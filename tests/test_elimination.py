import functools
import json
import time
import zlib
from fractions import Fraction as Q

import pytest

from wronski import deadline, elimination, realroots
from wronski.elimination import (EliminationResult, _projection_factor, boundary_check,
                                 certify_elimination, certify_no_real_solutions,
                                 count_real_intersections, eliminate_to_t)
from wronski.errors import EliminationError
from wronski.heights import HeightFunction, minimal_height
from wronski.lattice import hexagon_example
from wronski.polynomial import Polynomial
from wronski.realroots import (IsolatingInterval, UnivariatePolynomial, count_real_roots,
                               ddiv_exact, dgcd, dmul, dprimitive, isolate_real_roots,
                               sturm_count)
from wronski.resultants import resultant
from wronski.rng import Stream
from wronski.systems import meta_system, meta_system_from_points

from planted import from_roots


def hexagon_meta():
    hexa = hexagon_example()
    return meta_system_from_points(hexa.points, hexa.coloring, hexa.heights)


def test_hexagon_elimination_frozen():
    res = eliminate_to_t(hexagon_meta())
    # squarefree primitive output of the iterated-resultant pipeline
    assert res.E == UnivariatePolynomial([-1, 0, 0, 0, 0, 0, 4])
    assert res.t_power_removed > 0
    assert res.degree_raw == 62
    assert res.E.is_squarefree()


def test_hexagon_nonzero_real_roots_lift_only_to_complex_points():
    # 4t^6 - 1 vanishes at two nonzero reals; the certificate must still succeed
    # through the zero-free projection factor (1 + y^2)^2.
    res = eliminate_to_t(hexagon_meta())
    assert res.count_nonzero_real_roots() == 2
    cert = certify_no_real_solutions(hexagon_meta())
    assert cert.certified
    assert cert.method == "projection-factor"


def test_hexagon_certificate_over_interval():
    cert = certify_no_real_solutions(hexagon_meta(), t_upper=Q(1))
    assert cert.certified


def test_certify_elimination_reuses_an_elimination():
    for system in (hexagon_meta(), meta_system(3, HeightFunction.rho(3))):
        result = eliminate_to_t(system, refine=2)
        for t_upper in (None, Q(1)):
            assert certify_elimination(result, t_upper) == \
                certify_no_real_solutions(system, t_upper=t_upper)


def test_delta1_constant_eliminant():
    res = eliminate_to_t(meta_system(1, HeightFunction.zero(1)))
    assert res.E.degree() == 0
    assert res.count_nonzero_real_roots() == 0


def test_delta1_nonzero_heights_strip_to_constant():
    omega = HeightFunction(1, {(0, 0): 2, (1, 0): 0, (0, 1): 0})
    res = eliminate_to_t(meta_system(1, omega))
    assert res.E.degree() == 0
    assert res.t_power_removed > 0


def test_delta3_raw_has_extraneous_factor_in_unit_interval():
    res = eliminate_to_t(meta_system(3, HeightFunction.rho(3)))
    assert res.E.degree() == 12
    assert sturm_count(res.E, (0, 1)) == 1  # extraneous and documented


def test_delta3_refined_is_the_degree6_generator():
    res = eliminate_to_t(meta_system(3, HeightFunction.rho(3)), refine=2)
    assert res.E == UnivariatePolynomial([1, 0, 0, -3, 0, 0, 9])
    assert count_real_roots(res.E) == 0
    assert sturm_count(res.E, (0, 1)) == 0
    assert res.refined_degrees and all(d > 0 for d in res.refined_degrees)


def test_delta3_refined_divides_raw():
    raw = eliminate_to_t(meta_system(3, HeightFunction.rho(3)))
    refined = eliminate_to_t(meta_system(3, HeightFunction.rho(3)), refine=2)
    a = raw.E.int_primitive()
    b = refined.E.int_primitive()
    assert dgcd(a, b) == b  # the refined output divides the raw squarefree output


def test_delta3_certificate():
    cert = certify_no_real_solutions(meta_system(3, HeightFunction.rho(3)))
    assert cert.certified
    assert cert.method == "eliminant"


def test_boundary_check_delta3():
    reports = {r.label: r for r in boundary_check(meta_system(3, HeightFunction.rho(3)))}
    assert reports["x=0"].status == "no-real-t-nonzero"
    assert reports["y=0"].status == "no-real-t-nonzero"
    assert reports["x=y=0"].status == "infeasible"
    assert reports["x=0"].colors_present == (0, 1, 2)


def test_boundary_check_hexagon():
    reports = {r.label: r for r in boundary_check(hexagon_meta())}
    for label in ("x=0", "y=0", "x=y=0"):
        assert reports[label].status == "no-real-t-nonzero"
        pts = [iv for iv in reports[label].t_candidates]
        assert all(iv.is_point and iv.lo == 0 for iv in pts)


def test_boundary_check_delta1():
    reports = {r.label: r for r in boundary_check(meta_system(1, HeightFunction.zero(1)))}
    assert reports["x=y=0"].status == "infeasible"
    assert reports["x=0"].status == "infeasible"


def _no_common_real_zero_of_triple(f0, f1, f2):
    """Sound spot check: gcd of the two sheared partial resultants is real-root-free."""
    x = Polynomial.variable("x", ("x", "y"))
    y = Polynomial.variable("y", ("x", "y"))
    sub = {"x": x + y}
    f0s, f1s, f2s = (p.substitute(sub) for p in (f0, f1, f2))
    A = resultant(f0s, f1s, "y").drop_unused()
    B = resultant(f0s, f2s, "y").drop_unused()
    if A.is_constant() or B.is_constant():
        return not (A.is_zero() or B.is_zero())
    ua = UnivariatePolynomial([c.constant_value() for c in A.as_univariate("x")])
    ub = UnivariatePolynomial([c.constant_value() for c in B.as_univariate("x")])
    g = UnivariatePolynomial(dgcd(ua.int_primitive(), ub.int_primitive()))
    return g.degree() == 0 or count_real_roots(g) == 0


def test_elimination_soundness_spot_checks():
    # the certified-empty window (0, 0.7] for delta 3 is sampled at random
    # rational t: the specialized system must have no common real zero
    system = meta_system(3, HeightFunction.rho(3))
    cert = certify_no_real_solutions(system, t_upper=Q(7, 10))
    assert cert.certified
    stream = Stream(0x50FD)
    for _ in range(20):
        t = Q(stream.int_in(1, 7 * 10 ** 5), 10 ** 6)
        fs = [f.substitute({"t": t}).drop_unused().with_variables(("x", "y"))
              for f in system.f]
        assert _no_common_real_zero_of_triple(*fs)


def test_eliminate_reports_projection_data():
    res = eliminate_to_t(hexagon_meta())
    assert len(res.projections) == 2
    surviving = {pr.surviving_var for pr in res.projections}
    assert surviving == {"y"}
    assert any(pr.t_free_no_real_zeros() for pr in res.projections)


def test_count_rejects_constant_curves():
    from wronski.errors import DomainError

    c = Polynomial(("x", "y"), {(0, 0): 3})
    line = Polynomial(("x", "y"), {(1, 0): 1})
    with pytest.raises(DomainError):
        count_real_intersections(c, line)


def test_eliminate_honors_deadline():
    system = meta_system(5, HeightFunction.rho(5))
    with deadline(time.monotonic() - 1), pytest.raises(TimeoutError):
        eliminate_to_t(system)


def test_squarefree_and_gcd_passes_honor_deadline():
    past = time.monotonic() - 1
    a = dmul([-1, 0, 0, 1], [2, 0, 0, 1])  # (t^3 - 1)(t^3 + 2), in the lattice 3
    b = dmul(a, a)
    t = Polynomial.variable("t", ("t", "y"))
    y = Polynomial.variable("y", ("t", "y"))
    p = (1 + t) * (y + t + 2)  # the Z[t] content 1 + t takes a gcd
    with deadline(past):
        with pytest.raises(TimeoutError):
            dgcd(a, dmul(a, [1, 1]))
        with pytest.raises(TimeoutError):
            UnivariatePolynomial(b).squarefree_part()
        with pytest.raises(TimeoutError):
            dgcd(b, dmul(a, [3, 0, 0, 1]), a)
        with pytest.raises(TimeoutError):
            _projection_factor(p)
    assert UnivariatePolynomial(b).squarefree_part().coeffs == a and dgcd(b, a) == a
    factor = _projection_factor(p)
    assert (factor.poly, factor.content) == (y + t + 2, UnivariatePolynomial([1, 1]))


def _strip_t_power(p: Polynomial):
    """Factor out the largest power of t; returns (reduced, power)."""
    if "t" not in p.vars or p.is_zero():
        return p, 0
    i = p.vars.index("t")
    k = min(e[i] for e in p.terms)
    if k == 0:
        return p, 0
    terms = {e[:i] + (e[i] - k,) + e[i + 1:]: c for e, c in p.terms.items()}
    return Polynomial(p.vars, terms), k


def _t_content(p: Polynomial):
    """(p / content, content): the gcd over Z[t] of p's coefficients in its other variable."""
    others = [v for v in p.vars if v != "t" and p.degree(v) > 0]
    if "t" not in p.vars or len(others) != 1:
        return p, UnivariatePolynomial([1])
    u = others[0]
    rows = [c.dense("t") for c in p.as_univariate(u)]
    g = []
    for row in rows:
        if row:
            g = dgcd(g, row) if g else dprimitive(row)
            if g == [1]:
                return p, UnivariatePolynomial([1])
    rows = [ddiv_exact(row, g) for row in rows]
    ti, ui = p.vars.index("t"), p.vars.index(u)
    terms = {}
    for ue, row in enumerate(rows):
        for k, c in enumerate(row):
            if c:
                e = [0] * len(p.vars)
                e[ti], e[ui] = k, ue
                terms[tuple(e)] = c
    return Polynomial(p.vars, terms), UnivariatePolynomial(g)


def test_projection_factor_matches_the_three_pass_split():
    # the one-pass split against primitive part, t-power strip and t-content
    # taken one after the other: R = kappa t^k c(t) sum_j r_j(t) y^j, with a
    # t-power, a content, a single nonzero y-row, no y, and rational kappa
    stream = Stream(0x9F0C7)
    for case in range(60):
        variables = ("t", "y") if case % 2 else ("t", "x", "y")
        content = [stream.nonzero_int(4)] + [stream.int_in(-4, 4) for _ in range(case % 3)]
        rows = [[stream.int_in(-5, 5) for _ in range(stream.int_in(1, 4))]
                for _ in range(1 + case % 4)]
        if case % 5 == 0:
            rows = [[0]] * (len(rows) - 1) + [rows[-1]]
        scale = Q(stream.nonzero_int(7), stream.int_in(1, 6)) if case % 3 else 1
        power = stream.int_in(0, 3)
        terms = {}
        for j, row in enumerate(rows):
            for i, c in enumerate(dmul(content, row)):
                if c:
                    terms[(power + i, 0, j) if len(variables) == 3 else (power + i, j)] = scale * c
        if not terms:
            continue
        R = Polynomial(variables, terms)
        P, k = _strip_t_power(R.primitive_part())
        P, c = _t_content(P)
        got = _projection_factor(R)
        single = sum(1 for r in P.as_univariate("y") if not r.is_zero()) == 1
        assert got.t_power == k and got.poly.vars == variables, case
        assert got.surviving_var == ("y" if P.degree("y") > 0 else None), case
        if single and got.content == -c:  # a single row's content comes out positive
            c, P = -c, -P
        assert (got.content, got.poly) == (c, P), case


def test_eliminate_passes_its_deadline_to_the_squarefree_pass(expire_after):
    # the clock runs out right after the outer resultant, so only the
    # squarefree pass that follows can notice it
    expire_after(elimination, "resultant_factors")
    with deadline(time.monotonic() + 600), pytest.raises(TimeoutError, match="gcd"):
        eliminate_to_t(meta_system(3, HeightFunction.rho(3)))


def test_eliminate_passes_its_deadline_to_the_t_contents(expire_after):
    # the clock runs out once the first x-resultant (1 + t)(2 - y - y^2) is
    # formed, so only the gcd of its Z[t] content 1 + t can notice it
    V = ("t", "x", "y")
    t, x, y = (Polynomial.variable(v, V) for v in V)
    bad = meta_system(1, HeightFunction.zero(1))
    fs = (x + y - 2, (1 + t) * (x - y * y), x - y * y + (t - 2) * y)
    system = type(bad)(bad.points, bad.coloring, bad.omega, bad.kappa, fs, 1)
    expire_after(elimination, "resultant")
    with deadline(time.monotonic() + 600), pytest.raises(TimeoutError, match="gcd") as info:
        eliminate_to_t(system)
    assert "_projection_factor" in [entry.name for entry in info.traceback]


def test_root_candidates_and_certificates_honor_deadline():
    from wronski.elimination import certify_elimination

    result = eliminate_to_t(meta_system(3, HeightFunction.rho(3)))
    with deadline(time.monotonic() - 1):
        with pytest.raises(TimeoutError):
            result.real_root_candidates()
        with pytest.raises(TimeoutError):
            certify_elimination(result)
    assert len(result.real_root_candidates(refine_width=Q(1, 1000))) == 3  # t = 0 and two more


def test_window_counts_and_certificates_pass_their_deadline(expire_after):
    past = time.monotonic() - 1
    with deadline(past), pytest.raises(TimeoutError):
        sturm_count(from_roots([1, 3]), (0, Q(2)))
    # E is isolated already, so only the count in the window overlap can
    # notice the deadline: the interval (0, 143) straddles 9999/10000
    result = delta5_elimination()
    isolate_real_roots(result.E)
    with deadline(past), pytest.raises(TimeoutError) as info:
        result.real_root_candidates(0, Q(9999, 10000), include_zero=False)
    assert "sturm_count" in [entry.name for entry in info.traceback]
    hexagon = eliminate_to_t(hexagon_meta())
    expected = certify_elimination(hexagon, Q(1))  # by its zero-free partial projection
    assert expected.method == "projection-factor"
    with deadline(time.monotonic() + 600):
        assert certify_elimination(hexagon, Q(1)) == expected
    # the clock runs out once the candidates are listed, so only the root
    # count of the partial projection can notice it
    expire_after(EliminationResult, "real_root_candidates")
    with deadline(time.monotonic() + 600), pytest.raises(TimeoutError) as info:
        certify_elimination(hexagon, Q(1))
    assert "t_free_no_real_zeros" in [entry.name for entry in info.traceback]


def test_boundary_check_honours_its_deadline(expire_after):
    # the first check is the first PRS at delta 5, and at delta 3, whose
    # stratum resultants are monomial shortcuts, the first gcd
    for delta, site in ((5, "_prs_resultant"), (3, "_gcd_cofactor")):
        with deadline(time.monotonic() - 1), pytest.raises(TimeoutError) as info:
            boundary_check(meta_system(delta, HeightFunction.rho(delta)))
        assert info.traceback[-2].name == site
    # each stratum takes one gcd; at delta 3 the strata's gcds are powers of
    # t, isolated without a check, and at delta 5 the first stratum's gcd
    # t^30 (t^6 - 1)^3 is isolated next: the clock runs out after that gcd,
    # so only its isolation can notice it
    system = meta_system(5, HeightFunction.rho(5))
    expected = boundary_check(system)
    with deadline(time.monotonic() + 600):
        assert boundary_check(system) == expected
    expire_after(elimination, "dgcd")
    with deadline(time.monotonic() + 600), pytest.raises(TimeoutError) as info:
        boundary_check(system)
    assert "isolate_real_roots" in [entry.name for entry in info.traceback]


def test_minimal_height_elimination_is_sound_superset():
    # refinement takes a gcd with further routes, so the refined E divides the
    # primary route's E exactly and every refined candidate is an unrefined one
    # (at delta 3 refinement sheds both real candidates; delta 2 keeps one)
    for delta, degrees in ((3, (12, 6)), (2, (3, 3))):
        system = meta_system(delta, minimal_height(delta))
        plain = eliminate_to_t(system, refine=0)
        refined = eliminate_to_t(system, refine=2)
        assert (plain.E.degree(), refined.E.degree()) == degrees
        ddiv_exact(plain.E.int_primitive(), refined.E.int_primitive())
        unrefined = plain.real_root_candidates(include_zero=False)
        for iv in refined.real_root_candidates(include_zero=False):
            assert any(iv.lo <= other.hi and other.lo <= iv.hi for other in unrefined), iv


def test_eliminate_raises_on_shared_component():
    # f1 = f2 makes both projections collapse onto the same curve, and the
    # outer resultant vanishes identically whatever the coordinates
    f0 = Polynomial(("t", "x", "y"), {(0, 1, 1): 1, (1, 0, 0): 1})
    f1 = Polynomial(("t", "x", "y"), {(0, 1, 0): 1, (0, 0, 1): -1})
    bad = meta_system(1, HeightFunction.zero(1))
    system = type(bad)(bad.points, bad.coloring, bad.omega, bad.kappa, (f0, f1, f1), 1)
    with pytest.raises(EliminationError):
        eliminate_to_t(system)


def test_refinement_keeps_roots_of_secondary_route_contents():
    # f1 = f2 exactly at t = 2, where the system has the real solutions
    # (1, 1) and (4, -2); every other route divides Res_x(f1, f2) = (t - 2) y,
    # so that route's content carries the only solution t
    V = ("t", "x", "y")
    t, x, y = (Polynomial.variable(v, V) for v in V)
    f0 = x + y - 2
    f1 = x - y * y
    f2 = x - y * y + (t - 2) * y
    bad = meta_system(1, HeightFunction.zero(1))
    system = type(bad)(bad.points, bad.coloring, bad.omega, bad.kappa, (f0, f1, f2), 1)
    for refine in (0, 1, 2):
        res = eliminate_to_t(system, refine=refine)
        assert res.E == UnivariatePolynomial([-2, 1]), refine
    cert = certify_no_real_solutions(system, refine=2)
    assert not cert.certified
    assert any(iv.lo <= 2 <= iv.hi for iv in cert.candidates)


# -- the certificate window, pinned eliminations and more soundness spot checks -------


@functools.cache
def delta5_elimination():
    return eliminate_to_t(meta_system(5, HeightFunction.rho(5)), refine=2)


def test_delta5_elimination_pinned():
    # CRC32 of the sorted-key JSON of the refined delta-5 elimination (criterion 9)
    payload = json.dumps(delta5_elimination().to_json(), sort_keys=True)
    assert zlib.crc32(payload.encode()) == 3561718772


def test_delta6_elimination_pinned():
    # its outer resultants divide integers of up to 1.2 Mbit by 0.76 Mbit: the
    # 2-adic quotients at scale
    result = eliminate_to_t(meta_system(6, HeightFunction.rho(6)), refine=2)
    payload = json.dumps(result.to_json(), sort_keys=True)
    assert zlib.crc32(payload.encode()) == 2862021745


def _image_sizes(monkeypatch, height):
    """Slot counts and widths in bits of the delta-4 one-point images, by stage (x or y)."""
    from wronski import resultants
    from wronski.harness import resolve_height

    sizes, stage = {"x": [], "y": []}, []
    unpack = resultants._unpack

    def recorded(x, n, nbytes):
        if stage:
            sizes[stage[-1]].append((n, 8 * nbytes))
        return unpack(x, n, nbytes)

    def staged(name, tag):
        fn = getattr(elimination, name)

        def inner(*args):
            stage.append(tag)
            try:
                return fn(*args)
            finally:
                stage.pop()
        monkeypatch.setattr(elimination, name, inner)

    monkeypatch.setattr(resultants, "_unpack", recorded)
    staged("resultant", "x")
    staged("resultant_factors", "y")
    eliminate_to_t(meta_system(4, resolve_height(height, 4)), refine=2)
    return sizes


@pytest.mark.parametrize("height, slots", [("rho", 1279), ("min", 529)])
def test_x_stage_images_are_graded(monkeypatch, height, slots):
    # the summed slot counts of the x-resultant images at delta 4, one image
    # per pair of the three routes; exponent lattices alone gave 13,884 (rho)
    # and 4,820 (min) when each pair's image was formed twice, and scales
    # y -> u^c y with 0 <= c < K alone gave 1,384 and 799
    sizes = _image_sizes(monkeypatch, height)["x"]
    assert len(sizes) == 3 and sum(n for n, _ in sizes) == slots
    assert 6 * slots <= {"rho": 13884, "min": 4820}[height]


@pytest.mark.parametrize("height", ["rho", "min"])
def test_outer_images_are_tilted(monkeypatch, height):
    # under rho the t-exponents of y-coefficient i grow like 12 i, so only a
    # negative scale (c = -12, -15, -12) brings its outer images down to
    # min's sizes; scales 0 <= c < 3 gave rho 196, 231 and 236 slots.  The
    # column bound narrows the slots from 72 to 64 bits
    assert _image_sizes(monkeypatch, height)["y"] == [(76, 64), (101, 64), (76, 64)]


def test_delta4_gcds_take_one_prime_each(monkeypatch):
    # the squarefree gcds, the t-contents and the route gcd at delta 4 have
    # coefficients of at most 21 bits and gamma = 1, so one prime below 2^30
    # decides each; a constant operand decides a gcd without one
    primes, counts = [], []
    gcd_mod_p = realroots._gcd_mod_p
    dgcd = elimination.dgcd
    squarefree_part = elimination._SharedWork.squarefree_part

    def recorded(a, b, p):
        primes.append(p)
        return gcd_mod_p(a, b, p)

    def counted(name, expected, fn, *args):
        start = len(primes)
        out = fn(*args)
        counts.append((name, len(set(primes[start:])), expected))
        return out

    def counted_gcd(*operands):
        return counted("dgcd", int(min(map(len, operands)) > 1), dgcd, *operands)

    def computed_squarefree_part(work, ints):
        if tuple(ints) in work.squarefree:
            return squarefree_part(work, ints)
        return counted("squarefree_part", 1, squarefree_part, work, ints)

    monkeypatch.setattr(realroots, "_gcd_mod_p", recorded)
    monkeypatch.setattr(elimination, "dgcd", counted_gcd)
    monkeypatch.setattr(elimination._SharedWork, "squarefree_part", computed_squarefree_part)
    for height in (HeightFunction.rho(4), minimal_height(4)):
        eliminate_to_t(meta_system(4, height), refine=2)
    assert {name for name, _, _ in counts} == {"dgcd", "squarefree_part"}
    assert all(n == expected for _, n, expected in counts) and all(p < 2 ** 30 for p in primes)


def test_routes_share_projections_and_squarefree_parts(monkeypatch):
    # at delta 4 routes 0 and 2 square-free one operand, so two passes serve
    # three routes, and E comes back as its own squarefree part
    passes = []
    squarefree_part = elimination._SharedWork.squarefree_part

    def counted(work, ints):
        if tuple(ints) not in work.squarefree:
            passes.append(len(ints) - 1)
        return squarefree_part(work, ints)

    monkeypatch.setattr(elimination._SharedWork, "squarefree_part", counted)
    result = eliminate_to_t(meta_system(4, HeightFunction.rho(4)), refine=2)
    assert passes == [186, 282] and result.refined_degrees == (144, 96)
    assert result.E.squarefree_part() is result.E
    # Res_x(f_j, f_i) = +-Res_x(f_i, f_j): one projection for both orders,
    # except for two x-free polynomials, where the pivot's own is kept
    t, x, y = (Polynomial.variable(v, ("t", "x", "y")) for v in ("t", "x", "y"))
    work = elimination._SharedWork((y - t, y + 1, x * x - y))
    assert work.projection(0, 2, (0, 0)) is work.projection(2, 0, (0, 0))
    assert work.projection(0, 1, (0, 0)).poly == y - t
    assert work.projection(1, 0, (0, 0)).poly == y + 1


def test_candidates_keep_only_roots_inside_the_window():
    # the unrefined interval (0, 143) of the least positive root (about
    # 0.99997) overlaps (0, 0.9999] but its root does not lie there
    result = delta5_elimination()
    assert result.real_root_candidates(0, Q(9999, 10000), include_zero=False) == []
    inside = result.real_root_candidates(0, 1, include_zero=False)
    assert len(inside) == 1 and inside[0].lo < 1 < inside[0].hi
    assert result.real_root_candidates(0, 1) == inside  # t = 0 lies outside (0, 1]
    assert result.real_root_candidates(include_zero=False) == \
        result.real_root_candidates(None, None, include_zero=False)


def test_candidates_window_is_half_open():
    # E = (t - 2)(2t - 7): the exact point 2 belongs to (lo, 2] and not to (2, hi]
    result = eliminate_to_t(two_root_system(), refine=2)
    point = IsolatingInterval(Q(2), Q(2))
    assert result.real_root_candidates(1, 2) == [point]
    assert result.real_root_candidates(0, Q(5, 2)) == [point]
    assert result.real_root_candidates(2, 3) == []
    # 7/2 is isolated by (13/4, 9/2): a window ending at 7/2 keeps it, one
    # starting there does not
    (seven_halves,) = result.real_root_candidates(2, 4)
    assert (seven_halves.lo, seven_halves.hi) == (Q(13, 4), Q(9, 2))
    assert result.real_root_candidates(3, Q(7, 2)) == [seven_halves]
    assert result.real_root_candidates(Q(13, 4), Q(7, 2)) == [seven_halves]
    assert result.real_root_candidates(Q(7, 2), 9) == []
    assert result.real_root_candidates(0, Q(13, 4)) == [point]


def _root_in_window(src, iv, lo, hi):
    """Whether the root that iv isolates lies in (lo, hi], from the interval itself.

    The rule the candidates were once chosen by, kept as the reference: a
    point is its root; a proper interval holds one root of src strictly
    inside, so it lies in the window when the interval does, and otherwise
    exactly when src has a root in the overlap (max(iv.lo, lo), min(iv.hi, hi)].
    """
    if iv.is_point:
        return (lo is None or lo < iv.lo) and (hi is None or iv.lo <= hi)
    a = iv.lo if lo is None else max(iv.lo, lo)
    b = iv.hi if hi is None else min(iv.hi, hi)
    if (a, b) == (iv.lo, iv.hi):
        return True
    return a < b and sturm_count(src, (a, b)) > 0


def reference_candidates(result, lo, hi, include_zero, refine_width):
    """real_root_candidates by refining every interval and testing each one alone."""
    from wronski.realroots import refine_interval

    own = []
    for src in (result.E,) + result.content_factors:
        for iv in isolate_real_roots(src):
            if refine_width is not None:
                iv = refine_interval(src, iv, refine_width)
            if _root_in_window(src, iv, lo, hi):
                own.append(iv)
    zero = IsolatingInterval(Q(0), Q(0))
    if result.t_power_removed and _root_in_window(None, zero, lo, hi):
        own.append(zero)
    return sorted({(iv.lo, iv.hi) for iv in own
                   if include_zero or not (iv.is_point and iv.lo == 0)})


def random_rational_roots(stream, n):
    return sorted({Q(stream.int_in(-12, 12), stream.int_in(1, 4)) for _ in range(n)})


def test_candidates_by_rank_match_the_per_interval_rule():
    # sources with exact rational roots (some times t^2 - 2 for irrational
    # ones) and contents; window ends on roots, on interval ends, inside
    # intervals, and open
    stream = Stream(0x51ACE)
    for case in range(20):
        roots = [random_rational_roots(stream, stream.int_in(1, 5))
                 for _ in range(stream.int_in(1, 3))]
        E, *contents = map(from_roots, roots)
        if case % 3 == 0:
            E = E * UnivariatePolynomial([-2, 0, 1])
        result = EliminationResult(E, E.degree(), case % 2, tuple(contents), 0, (0, 0), ())
        ends = set().union(*roots)
        for src in [E] + contents:
            for iv in isolate_real_roots(src):
                ends |= {iv.lo, iv.hi, iv.midpoint()}
        ends = sorted(ends)
        windows = [(None, None)] + [(None, b) for b in ends] + [(a, None) for a in ends]
        windows += [(a, b) for i, a in enumerate(ends) for b in ends[i + 1:]]
        for k, (lo, hi) in enumerate(windows):
            include_zero = k % 2 == 0
            width = Q(1, 1000) if k % 5 == 0 else None
            got = result.real_root_candidates(lo, hi, include_zero, width)
            assert [(iv.lo, iv.hi) for iv in got] == \
                reference_candidates(result, lo, hi, include_zero, width), (case, lo, hi)


def test_certificate_keeps_only_candidates_inside_the_window():
    # the least positive root of E is about 0.99997: its unrefined isolating
    # interval (0, 143) overlaps (0, 0.9999] but its root does not lie there
    result = delta5_elimination()
    assert sturm_count(result.E, (0, Q(9999, 10000))) == 0
    assert sturm_count(result.E, (0, 1)) == 1
    cert = certify_elimination(result, Q(9999, 10000))
    assert cert.certified and cert.method == "eliminant"
    assert certify_no_real_solutions(meta_system(5, HeightFunction.rho(5)),
                                     t_upper=Q(9999, 10000)) == cert
    cert = certify_elimination(result, Q(1))
    assert not cert.certified
    assert any(iv.lo < 1 < iv.hi for iv in cert.candidates)


def system_meeting_where(h):
    """f0 = x + y - 2, f1 = x - y^2, f2 = f1 + h(t) y: real solutions (1, 1) and
    (4, -2) where h(t) = 0, and none elsewhere."""
    V = ("t", "x", "y")
    t, x, y = (Polynomial.variable(v, V) for v in V)
    bad = meta_system(1, HeightFunction.zero(1))
    fs = (x + y - 2, x - y * y, x - y * y + h(t) * y)
    return type(bad)(bad.points, bad.coloring, bad.omega, bad.kappa, fs, 1)


def two_root_system():
    # E = (t - 2)(2t - 7) is isolated with the exact point [2, 2]
    return system_meeting_where(lambda t: (t - 2) * (2 * t - 7))


def test_window_count_after_isolation_runs_no_second_subdivision(monkeypatch):
    # (13/4, 9/2) straddles the window's end 7/2, so the candidate is kept by
    # a window count on E, read from the subdivision the isolation ran
    result = eliminate_to_t(two_root_system(), refine=2)
    subdivisions = []
    real_roots = realroots._real_roots

    def counted_roots(q):
        subdivisions.append(q)
        return real_roots(q)

    monkeypatch.setattr(realroots, "_real_roots", counted_roots)
    (seven_halves,) = result.real_root_candidates(3, Q(7, 2))
    assert (seven_halves.lo, seven_halves.hi) == (Q(13, 4), Q(9, 2))
    assert subdivisions == [result.E.coeffs]


def test_certificate_counts_a_root_on_the_window_edge():
    result = eliminate_to_t(two_root_system(), refine=2)
    assert result.E == UnivariatePolynomial([14, -11, 2])
    assert isolate_real_roots(result.E)[0] == IsolatingInterval(Q(2), Q(2))
    assert certify_elimination(result, Q(19, 10)).certified
    for t_upper in (Q(2), Q(3), Q(7, 2), None):
        cert = certify_elimination(result, t_upper)
        assert not cert.certified, t_upper
        assert any(iv.lo <= 2 <= iv.hi for iv in cert.candidates)


def test_certificate_window_is_exact_property():
    # the eliminant certificate is issued exactly when no source (E or a
    # content factor) has a root in (0, t_upper]; the projection-factor one
    # only when the content factors of a zero-free partial projection have none
    stream = Stream(0xCE27)
    systems = [hexagon_meta(), meta_system(3, HeightFunction.rho(3)),
               meta_system(3, minimal_height(3)), meta_system(2, minimal_height(2)),
               two_root_system(), system_meeting_where(lambda t: t - 2)]
    results = [eliminate_to_t(s, refine=r) for s in systems for r in (0, 2)]
    results.append(delta5_elimination())
    for result in results:
        sources = (result.E,) + result.content_factors
        edges = [x for src in sources if src.degree() > 0
                 for iv in isolate_real_roots(src) for x in (iv.lo, iv.hi) if x > 0]
        randoms = [Q(stream.int_in(1, 4000), stream.int_in(1, 2000)) for _ in range(12)]
        for t_upper in edges + randoms:
            cert = certify_elimination(result, t_upper)
            empty = all(sturm_count(src, (0, t_upper)) == 0 for src in sources)
            assert (cert.method == "eliminant") == empty, t_upper
            if cert.method == "projection-factor":
                assert any(pr.t_free_no_real_zeros() and (
                    pr.content.degree() <= 0 or sturm_count(pr.content, (0, t_upper)) == 0)
                    for pr in result.projections)
            assert cert.certified == (cert.method != "inconclusive")


def _spot_check_window(system, t_upper: Q, denominator: int, samples: int, seed: int):
    stream = Stream(seed)
    for _ in range(samples):
        t = Q(stream.int_in(1, int(t_upper * denominator)), denominator)
        fs = [f.substitute({"t": t}).drop_unused().with_variables(("x", "y"))
              for f in system.f]
        assert _no_common_real_zero_of_triple(*fs), t


def test_elimination_soundness_spot_checks_hexagon():
    # certified through the zero-free projection factor on (0, 1], although
    # E = 4t^6 - 1 has a root there
    system = hexagon_meta()
    assert certify_no_real_solutions(system, t_upper=Q(1)).method == "projection-factor"
    _spot_check_window(system, Q(1), 10 ** 6, 20, 0x50FE)


def test_elimination_soundness_spot_checks_delta5():
    # (0, 0.9999] lies just below criterion 9's least positive root
    assert certify_elimination(delta5_elimination(), Q(9999, 10000)).certified
    _spot_check_window(meta_system(5, HeightFunction.rho(5)), Q(9999, 10000), 10 ** 4, 8,
                       0x50FF)
