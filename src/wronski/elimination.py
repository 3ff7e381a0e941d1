"""Projection of the three-polynomial systems to the deformation axis, and
exact real intersection counting for pairs of plane curves.

Iterated resultants land in the elimination ideal, so the univariate output E
vanishes at the t-coordinate of every solution; absence of real roots of E
(together with the stripped t-power and content factors, which are reported,
never discarded silently) in an interval therefore certifies absence of real
solutions there.  The converse fails in general: iterated resultants carry
extraneous factors, and real roots of E may also come from solutions with
nonreal x, y.  Two honest strengthenings are implemented:

* refinement: the same projection computed with a different pivot or after a
  determinant-one change of coordinates is another multiple of the true
  eliminant, so the gcd of several routes is one as well and typically sheds
  the extraneous factors;
* certificates: if one partial projection, after stripping its t-content, is
  a polynomial in the other variable alone with no real zeros, the system has
  no real solutions at any t outside the stripped factors, whatever E looks
  like.

Pairs of plane curves take an integer path instead: each curve becomes an
integer grid once, each shear x <- x + s y expands it into integer rows, and
the y-resultant is interpolated exactly from integer values at mn + 1
abscissas (`resultants.interpolated_resultant`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .errors import DegenerateInstanceError, DomainError, EliminationError
from .polynomial import Polynomial
from .realroots import (IsolatingInterval, UnivariatePolynomial, count_real_roots, dcompress,
                        ddiv_exact, dexpand, dexponent_gcd, dgcd, dmul, dprimitive, dstrip,
                        isolate_real_roots, refine_interval, sturm_count)
from .resultants import interpolated_resultant, resultant, resultant_factors
from .rng import Stream, derive_seed
from .systems import MetaSystem, boundary_subsystems

# -- helpers ----------------------------------------------------------------------


def _t_ints(p: Polynomial):
    """Primitive integer t-list, positive leading coefficient, of a polynomial in t alone."""
    return UnivariatePolynomial(p.dense("t")).int_primitive()


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
    """gcd over Z[t] of the coefficients with respect to the non-t variables.

    Returns (reduced, content) with content a UnivariatePolynomial in t;
    content is [1] when trivial.  Expects integer coefficients.
    """
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


@dataclass(frozen=True)
class ProjectionFactor:
    """One partial projection R = t^k * content(t) * poly, fully bookkept."""

    poly: Polynomial
    surviving_var: str | None  # the non-t variable in poly, if any
    t_power: int
    content: UnivariatePolynomial  # [1] when trivial

    def t_free_no_real_zeros(self) -> bool:
        """True when poly involves only the surviving variable and has no real zeros."""
        if self.surviving_var is None or self.poly.degree("t") > 0:
            return False
        try:
            u = UnivariatePolynomial(self.poly.dense(self.surviving_var))
        except DomainError:
            return False
        return not u.is_zero() and (u.degree() == 0 or count_real_roots(u) == 0)


@dataclass(frozen=True)
class EliminationResult:
    """Certified projection data for one system.

    E is squarefree, primitive with positive leading coefficient.  The
    t-coordinate of any solution of the input system is a root of E, a root
    of one of the content factors, or 0 when t_power_removed > 0.
    """

    E: UnivariatePolynomial
    degree_raw: int
    t_power_removed: int
    content_factors: tuple
    pivot: int
    shear_used: tuple
    projections: tuple
    refined_degrees: tuple = ()

    def real_root_candidates(self, lo=None, hi=None, include_zero=True, refine_width=None):
        """Isolating intervals of every certified-candidate real t in (lo, hi].

        lo or hi None leaves that side open.  A source's candidates in the
        window are its isolating intervals ranked between its root counts at
        the window's ends: ivs[sturm_count(src, (None, lo)):sturm_count(src, (None, hi))].
        Only those are refined.
        """
        lo = Fraction(lo) if lo is not None else None
        hi = Fraction(hi) if hi is not None else None
        own = []
        for src in [self.E] + list(self.content_factors):
            if src.degree() <= 0:
                continue
            ivs = isolate_real_roots(src)
            first = 0 if lo is None else sturm_count(src, (None, lo))
            last = len(ivs) if hi is None else sturm_count(src, (None, hi))
            for iv in ivs[first:last]:
                if refine_width is not None:
                    iv = refine_interval(src, iv, Fraction(refine_width))
                own.append(iv)
        if self.t_power_removed and (lo is None or lo < 0) and (hi is None or hi >= 0):
            own.append(IsolatingInterval(Fraction(0), Fraction(0)))
        seen = set()
        out = []
        for iv in sorted(own, key=lambda v: (v.lo, v.hi)):
            key = (iv.lo, iv.hi)
            if key in seen:
                continue
            seen.add(key)
            if not include_zero and iv.is_point and iv.lo == 0:
                continue
            out.append(iv)
        return out

    def count_nonzero_real_roots(self) -> int:
        return len(self.real_root_candidates(include_zero=False))

    def to_json(self) -> dict:
        return {
            "eliminant_multiple": repr(self.E),
            "degree_raw": self.degree_raw,
            "degree_squarefree": self.E.degree(),
            "t_power_removed": self.t_power_removed,
            "content_degrees": [c.degree() for c in self.content_factors],
            "pivot": self.pivot,
            "shear_used": list(self.shear_used),
            "refined_degrees": list(self.refined_degrees),
        }


def _compressed_squarefree(ints):
    """Squarefree part computed inside the exponent lattice of the input.

    With a nonzero constant term, P(t) = Q(t^g) is squarefree exactly when Q
    is, and the squarefree parts correspond under the same substitution; the
    compressed domain makes the gcd with the derivative g^2 times cheaper.
    """
    g = dexponent_gcd(ints)
    sf = UnivariatePolynomial(dcompress(ints, g)).squarefree_part()
    return dexpand(sf.coeffs, g)


def _compressed_gcd(a, b):
    """gcd of integer polynomials through their common exponent lattice."""
    g = dexponent_gcd(b, dexponent_gcd(a))
    return dexpand(dgcd(dcompress(a, g), dcompress(b, g)), g)


def _t_power(ints) -> int:
    """The exponent of the largest power of t dividing a nonzero list."""
    return next(i for i, c in enumerate(ints) if c)


def _squarefree_operand(factors, extra=()):
    """The product of the factors without exponents or powers of t.

    Its squarefree part is that of prod c^e, t-powers stripped, for every
    exponent e >= 1, at a fraction of the degree.
    """
    out = [1]
    for c in [c for c, _ in factors] + list(extra):
        out = dmul(out, c[_t_power(c):])
    return out


def _elim_step(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Eliminate var from the pair; a var-free input is already eliminated."""
    if f.degree(var) <= 0:
        return f
    if g.degree(var) <= 0:
        return g
    return resultant(f, g, var)


class _SharedWork:
    """What the projection routes of one system share, each computed once.

    * The sheared inputs, per shear.
    * The x-projection of each pair under each shear.  Res_x(f_j, f_i) =
      +-Res_x(f_i, f_j), and a sign changes no t-power, t-content,
      squarefree part or gcd taken from it, so both orders share one; only
      when neither polynomial involves x does `_elim_step` keep the first,
      and then the order is part of the key.
    * The squarefree part of each operand (`_compressed_squarefree`).
    """

    def __init__(self, fs):
        self.fs = fs
        self.sheared = {}
        self.projected = {}
        self.squarefree = {}

    def projection(self, i: int, j: int, shear):
        """The ProjectionFactor of Res_x(f_i, f_j) after the shear; None when it vanishes."""
        if shear not in self.sheared:
            self.sheared[shear] = _sheared(self.fs, shear)
        f, g = self.sheared[shear][i], self.sheared[shear][j]
        ordered = f.degree("x") <= 0 and g.degree("x") <= 0
        key = ((i, j) if ordered else frozenset((i, j)), shear)
        if key not in self.projected:
            R = _elim_step(f, g, "x")
            self.projected[key] = None if R.is_zero() else _projection_factor(R)
        return self.projected[key]

    def squarefree_part(self, ints):
        """`_compressed_squarefree(ints)`, computed once per operand."""
        key = tuple(ints)
        if key not in self.squarefree:
            self.squarefree[key] = _compressed_squarefree(ints)
        return self.squarefree[key]


def _sheared(fs, shear):
    """fs after x <- x + a y, y <- b x + (1 + a b) y (determinant one) for shear (a, b)."""
    a, b = shear
    if (a, b) == (0, 0):
        return fs
    x = Polynomial.variable("x", ("x", "y"))
    y = Polynomial.variable("y", ("x", "y"))
    sub = {"x": x + a * y, "y": b * x + (1 + a * b) * y}
    return tuple(p.substitute(sub) for p in fs)


def _projection_factor(R: Polynomial) -> ProjectionFactor:
    """R's primitive part, stripped of its power of t and its t-content, with both kept."""
    P, k = _strip_t_power(R.primitive_part())
    P, content = _t_content(P)
    others = [v for v in P.vars if v != "t" and P.degree(v) > 0]
    return ProjectionFactor(P, others[0] if others else None, k, content)


def _one_route(work: _SharedWork, pivot: int, shear):
    """Run the x-then-y projection for one pivot/coordinate choice.

    Returns (factors, projections, raw_extra), with the route's raw projection
    the product of c^e over the primitive integer t-lists (c, e) of factors,
    or None when the route degenerates (zero resultant at either stage).
    """
    projections = []
    for k in range(3):
        if k != pivot:
            pr = work.projection(pivot, k, shear)
            if pr is None:
                return None
            projections.append(pr)
    pr1, pr2 = projections
    P1, P2 = pr1.poly, pr2.poly
    d1 = max(P1.degree("y"), 0)
    d2 = max(P2.degree("y"), 0)
    raw_extra = d2 * (pr1.t_power + max(pr1.content.degree(), 0)) \
        + d1 * (pr2.t_power + max(pr2.content.degree(), 0))
    if d1 == 0 and d2 == 0:
        factors = [(dgcd(_t_ints(P1), _t_ints(P2)), 1)]
    elif d1 == 0:
        factors = [(_t_ints(P1), 1)]
    elif d2 == 0:
        factors = [(_t_ints(P2), 1)]
    else:
        factors = [(_t_ints(c), e) for c, e in resultant_factors(P1, P2, "y")]
        if not all(c for c, _ in factors):
            return None
    return factors, tuple(projections), raw_extra


def eliminate_to_t(system: MetaSystem, refine: int = 0, seed: int = 0) -> EliminationResult:
    """Project the system to the t-axis through iterated resultants.

    refine > 0 folds in up to that many further projection routes (pivot
    swaps, then determinant-one coordinate changes) and returns the gcd,
    which is still a multiple of the true eliminant and a divisor of the
    primary route's output.  A zero route is retried with seeded coordinate
    changes, at most eight times, before EliminationError is raised.
    """
    work = _SharedWork(system.f)
    stream = Stream(derive_seed(seed, 0xE11))
    transforms = [(stream.nonzero_int(3), stream.nonzero_int(3)) for _ in range(8)]

    primary = None
    for shear in [(0, 0)] + transforms:
        out = _one_route(work, 0, shear)
        if out is not None:
            primary = (0, shear, out)
            break
    if primary is None:
        raise EliminationError("extraneous component suspected: all projections vanished")

    pivot, shear, (factors, projections, raw_extra) = primary
    extra_results = []
    if refine > 0:
        extra_routes = [(1, (0, 0)), (2, (0, 0))] + [(0, tr) for tr in transforms if tr != shear]
        for rp, rs in extra_routes[:refine]:
            out = _one_route(work, rp, rs)
            if out is not None:
                extra_results.append(out)

    # the primary route's raw projection is prod c^e: degrees and powers of t add
    degree_raw = sum(e * (len(c) - 1) for c, e in factors) + raw_extra
    k3 = sum(e * _t_power(c) for c, e in factors)
    sf = work.squarefree_part(_squarefree_operand(factors))
    refined_degrees = []
    for extra_factors, extra_projections, _ in extra_results:
        # a solution's t may be a root of this route's stripped contents only
        contents = [pr.content.coeffs for pr in extra_projections if pr.content.degree() > 0]
        other_sf = work.squarefree_part(_squarefree_operand(extra_factors, contents))
        refined_degrees.append(len(other_sf) - 1)
        sf = _compressed_gcd(sf, other_sf)
    E = UnivariatePolynomial.from_squarefree(sf)  # a gcd of squarefree parts
    contents = [pr.content for pr in projections if pr.content.degree() > 0]
    t_power_removed = k3 + sum(pr.t_power for pr in projections)
    return EliminationResult(
        E=E,
        degree_raw=degree_raw,
        t_power_removed=t_power_removed,
        content_factors=tuple(contents),
        pivot=pivot,
        shear_used=shear,
        projections=tuple(projections),
        refined_degrees=tuple(refined_degrees),
    )


# -- certificates -----------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Outcome of an attempt to certify real-solution emptiness over a t-range."""

    certified: bool
    method: str
    detail: str
    candidates: tuple = ()


def certify_no_real_solutions(system: MetaSystem, t_upper=None, refine: int = 2,
                              seed: int = 0) -> Certificate:
    """Certify that the system has no real solutions with t != 0 (or 0 < t <= t_upper).

    First tries the projection E together with all stripped factors; if real
    candidates survive, falls back to the zero-free projection-factor
    argument.  A certificate is only issued when one of the two sound
    criteria holds.
    """
    return certify_elimination(eliminate_to_t(system, refine=refine, seed=seed), t_upper)


def certify_elimination(result: EliminationResult, t_upper=None) -> Certificate:
    """The certificate of certify_no_real_solutions for an elimination already done."""
    hi = Fraction(t_upper) if t_upper is not None else None
    candidates = result.real_root_candidates(0 if hi is not None else None, hi, include_zero=False)
    if not candidates:
        scope = "t != 0" if t_upper is None else f"0 < t <= {t_upper}"
        return Certificate(True, "eliminant", f"no real candidate roots with {scope}")
    for pr in result.projections:
        if pr.t_free_no_real_zeros() and not (
                pr.content.degree() > 0 and _content_has_roots(pr.content, hi)):
            return Certificate(
                True, "projection-factor",
                f"partial projection in {pr.surviving_var!r} has no real zeros; "
                f"its stripped factors vanish only at t = 0")
    return Certificate(False, "inconclusive",
                       "real candidate roots survive all certificates",
                       tuple(candidates))


def _content_has_roots(content: UnivariatePolynomial, t_upper) -> bool:
    """Whether content vanishes in (0, t_upper], or anywhere but 0 when t_upper is None.

    Both are root counts: over the window, or over the line less a root at 0.
    """
    if t_upper is not None:
        return sturm_count(content, (0, t_upper)) > 0
    return count_real_roots(content) > (content.coeffs[0] == 0)


# -- real intersection counting -----------------------------------------------------


def count_real_intersections(f: Polynomial, g: Polynomial, seed: int = 0):
    """Count distinct real affine intersection points of two plane curves.

    The count runs on integers from the shear to the resultant: each curve
    is cleared of denominators once (`_integer_grid`), each shear is
    expanded into integer rows (`_sheared_rows`), and the y-resultant u is
    interpolated from integer values (`resultants.interpolated_resultant`).
    On the shear found by sheared_resultant every root of u carries exactly
    one simple intersection point, and complex conjugation forces the point
    over a real root to be real, so the count of real roots of u is the
    count of real intersection points.  Returns (count, degree of u);
    (0, 0) when the curves do not meet.
    """
    if f.is_zero() or g.is_zero() or f.is_constant() or g.is_constant():
        raise DomainError("counting needs two nonconstant curves")
    u = sheared_resultant(f, g, seed)[3]
    return (count_real_roots(u), u.degree())


def sheared_resultant(f: Polynomial, g: Polynomial, seed: int = 0):
    """The first usable shear x <- x + s y of two plane curves.

    Up to eight distinct nonzero shears s are drawn from the seed.  A shear is
    usable when both sheared curves have a constant leading y-coefficient and
    their y-resultant u(x) is nonzero and squarefree; a nonzero constant u
    (the curves do not meet) is usable too.  For a curve of total degree m,
    row m of the sheared curve is the constant f_m(s, 1) of its top form, so
    the first test is that both rows are nonzero.  Returns (s, A, B, u) with
    A, B the integer rows of the sheared curves (row j the ascending x-list
    of the coefficient of y^j; each a nonzero rational multiple of the
    sheared curve) and u their resultant.  Raises EliminationError when every
    resultant computed vanished (a shared component) and
    DegenerateInstanceError when no shear was usable otherwise.
    """
    stream = Stream(derive_seed(seed, 0x5EA2))
    shears = []
    while len(shears) < 8:
        s = stream.nonzero_int(9)
        if s not in shears:
            shears.append(s)
    grids = [_integer_grid(p) for p in (f, g)]
    degrees = [max((i + j for i, j in grid), default=-1) for grid in grids]
    if min(degrees) < 1:
        raise DegenerateInstanceError("degenerate instance: a curve is constant")
    computed = 0
    zero_count = 0
    for s in shears:
        A, B = (_sheared_rows(grid, m, s) for grid, m in zip(grids, degrees))
        if not (A[-1] and B[-1]):
            continue
        computed += 1
        u = UnivariatePolynomial(interpolated_resultant(A, B))
        if u.is_zero():
            zero_count += 1
            continue
        if u.is_squarefree():
            return s, A, B, u
    if computed and zero_count == computed:
        raise EliminationError("non-finite intersection: curves share a component")
    raise DegenerateInstanceError("degenerate instance: resultant never squarefree")


def _integer_grid(p: Polynomial):
    """{(i, j): a_ij} with sum a_ij x^i y^j the primitive integer multiple of a plane curve.

    The multiple is den / num for den the lcm of the denominators and num the
    gcd of the numerators; a third variable that occurs raises DomainError.
    """
    at = {v: i for i, v in enumerate(p.vars)}
    ix, iy = at.pop("x", None), at.pop("y", None)
    grid = {}
    for e, a in p.terms.items():
        if any(e[i] for i in at.values()):
            raise DomainError("a plane curve lives in x and y alone")
        grid[(0 if ix is None else e[ix], 0 if iy is None else e[iy])] = a
    den = lcm(*(a.denominator for a in grid.values()))
    num = gcd(*(a.numerator for a in grid.values()))
    return {e: a.numerator * (den // a.denominator) // num for e, a in grid.items()}


def _sheared_rows(grid, m: int, s: int):
    """Rows of f(x + s y, y) for f of total degree m: row j is its y^j coefficient in x."""
    rows = [[0] * (m - j + 1) for j in range(m + 1)]
    for (i, j), a in grid.items():
        for k in range(i + 1):  # a (x + s y)^i y^j holds a C(i, k) s^(i-k) x^k y^(i-k+j)
            rows[i - k + j][k] += a * comb(i, k) * s ** (i - k)
    return [dstrip(row) for row in rows]


# -- boundary strata -----------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryReport:
    """Solvability summary of the system restricted to one coordinate stratum."""

    label: str
    zeroed: tuple
    colors_present: tuple
    status: str  # infeasible | no-real-t-nonzero | candidates | positive-dimensional
    t_candidates: tuple = ()
    detail: str = ""


def boundary_check(system: MetaSystem):
    """Analyze each coordinate stratum of the system.

    Univariate strata are eliminated exactly; the reported t-candidates are a
    certified superset of the t-values of real stratum solutions.
    """
    out = []
    gcds = {}  # coefficient tuple -> G, so that equal strata share one isolation
    for restriction in boundary_subsystems(system):
        polys = list(restriction.polys.values())
        colors = tuple(sorted(restriction.polys))
        label = restriction.label
        if not polys:
            out.append(BoundaryReport(label, restriction.zeroed, colors,
                                      "positive-dimensional", (),
                                      "all color slices vanish on the stratum"))
            continue
        if any(p.is_constant() for p in polys):
            out.append(BoundaryReport(label, restriction.zeroed, colors, "infeasible",
                                      (), "a nonzero constant slice forbids solutions"))
            continue
        t_polys = []
        other = []
        for p in polys:
            live = [v for v in p.vars if v != "t" and p.degree(v) > 0]
            (t_polys if not live else other).append(p)
        candidates = [_t_ints(p) for p in t_polys]
        for i in range(len(other)):
            for j in range(i + 1, len(other)):
                u = next(v for v in other[i].vars if v != "t" and other[i].degree(v) > 0)
                if other[j].degree(u) <= 0:
                    continue
                r = resultant(other[i], other[j], u)
                if not r.is_zero():
                    candidates.append(_t_ints(r))
        if not candidates:
            out.append(BoundaryReport(label, restriction.zeroed, colors,
                                      "positive-dimensional", (),
                                      "a single slice survives; the stratum is a curve"))
            continue
        g = []
        for c in candidates:
            g = dgcd(g, c) if g else dprimitive(c)
        G = gcds.setdefault(tuple(g), UnivariatePolynomial(g))
        if G.degree() <= 0:
            status, ivs = "infeasible", ()
        else:
            ivs = tuple(isolate_real_roots(G))
            nonzero = len(ivs) - (g[0] == 0)  # g(0) = 0 puts one root at 0
            status = "candidates" if nonzero else "no-real-t-nonzero"
        out.append(BoundaryReport(label, restriction.zeroed, colors, status, ivs,
                                  f"eliminated to gcd of degree {G.degree()}"))
    return out
