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
abscissas (`resultants.interpolated_resultant`).  Before the shear search the
count tilts both grids p-adically (`_tilted`) into those of F(lambda x, mu y)
and G(lambda x, mu y) for rationals lambda, mu > 0: the scaling maps real
intersection points one to one onto the curves' own, so counts and degrees
are unchanged, and on patchworked curves it more than halves the resultant's
coefficients.  `sheared_resultant` stays untilted, in the curves' own
coordinates, where plot markers are placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import mul

from .errors import DegenerateInstanceError, DomainError, EliminationError
from .polynomial import Polynomial
from .realroots import (IsolatingInterval, UnivariatePolynomial, count_real_roots, ddiv_exact,
                        dgcd, dmul, dstrip, isolate_real_roots, refine_interval, sturm_count)
from .resultants import interpolated_resultant, resultant, resultant_factors
from .rng import Stream, derive_seed
from .systems import MetaSystem, boundary_subsystems

# -- helpers ----------------------------------------------------------------------


def _t_ints(p: Polynomial):
    """Primitive integer t-list, positive leading coefficient, of a polynomial in t alone."""
    return UnivariatePolynomial(p.dense("t")).int_primitive()


@dataclass(frozen=True)
class ProjectionFactor:
    """One partial projection R = t^k * content(t) * poly, fully bookkept."""

    poly: Polynomial
    surviving_var: str | None  # the non-t variable in poly, if any
    t_power: int
    content: UnivariatePolynomial  # [1] when trivial

    def t_free_no_real_zeros(self) -> bool:
        """True when poly involves only the surviving variable and has no real zeros.

        poly has no x, and no t once the t check has passed.
        """
        if self.surviving_var is None or self.poly.degree("t") > 0:
            return False
        return count_real_roots(UnivariatePolynomial(self.poly.dense(self.surviving_var))) == 0


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
    * The squarefree part of each operand.
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
        """The squarefree part of ints as an integer list, computed once per operand."""
        key = tuple(ints)
        if key not in self.squarefree:
            self.squarefree[key] = UnivariatePolynomial(ints).squarefree_part().coeffs
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
    """R = t^k content(t) P, split in one pass over R's rows in its variables besides t.

    R's variables include t.  P is primitive over Z and k is R's lowest
    power of t.  The content ([1] when trivial) is the gcd of the rows when
    a variable besides t survives; taken after the t-power strip, it never
    vanishes at 0.
    """
    others = [v for v in R.vars if v != "t" and R.degree(v) > 0]
    ti, top = R.vars.index("t"), R.degree("t")
    cont = R.content()
    rows = {}  # the other exponents -> the dense t-list of that row of R / cont
    for e, c in R.terms.items():
        key = e[:ti] + e[ti + 1:]
        if key not in rows:
            rows[key] = [0] * (top + 1)
        rows[key][e[ti]] = c * cont.denominator // cont.numerator
    k = min(map(_t_power, rows.values()))
    rows = {key: dstrip(row[k:]) for key, row in rows.items()}
    content = dgcd(*rows.values()) if others else [1]
    if content != [1]:
        rows = {key: ddiv_exact(row, content) for key, row in rows.items()}
    terms = {key[:ti] + (j,) + key[ti:]: c for key, row in rows.items() for j, c in enumerate(row)}
    return ProjectionFactor(Polynomial(R.vars, terms), others[0] if others else None, k,
                            UnivariatePolynomial(content))


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
        sf = dgcd(sf, other_sf)
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
    lo = 0 if hi is not None else None
    candidates = result.real_root_candidates(lo, hi, include_zero=False)
    if not candidates:
        scope = "t != 0" if t_upper is None else f"0 < t <= {t_upper}"
        return Certificate(True, "eliminant", f"no real candidate roots with {scope}")
    for pr in result.projections:
        # a content never vanishes at 0, so the window (lo, hi] is all that counts
        if pr.t_free_no_real_zeros() and sturm_count(pr.content, (lo, hi)) == 0:
            return Certificate(
                True, "projection-factor",
                f"partial projection in {pr.surviving_var!r} has no real zeros; "
                f"its stripped factors vanish only at t = 0")
    return Certificate(False, "inconclusive",
                       "real candidate roots survive all certificates",
                       tuple(candidates))


# -- real intersection counting -----------------------------------------------------


def count_real_intersections(f: Polynomial, g: Polynomial, seed: int = 0):
    """Count distinct real affine intersection points of two plane curves.

    The count runs on integers from the shear to the resultant: both curves
    are tilted p-adically and cleared of denominators once (`_tilted`), each
    shear is expanded into integer rows (`_sheared_rows`), and the
    y-resultant u is interpolated from integer values
    (`resultants.interpolated_resultant`).  The tilted grids are those of
    F(lambda x, mu y) and G(lambda x, mu y) for rationals lambda, mu > 0:
    (x, y) -> (lambda x, mu y) maps their intersection points one to one onto
    the curves' own, and real ones onto real ones, so the count and the
    degree of u are those of the untilted curves while u's coefficients
    shrink.  On the shear found by the shear search every root of u carries
    exactly one simple intersection point, and complex conjugation forces
    the point over a real root to be real, so the count of real roots of u
    is the count of real intersection points.  Returns (count, degree of u);
    (0, 0) when the curves do not meet.
    """
    if f.is_zero() or g.is_zero() or f.is_constant() or g.is_constant():
        raise DomainError("counting needs two nonconstant curves")
    u = _shear_search(_tilted(f, g)[0], seed)[3]
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
    return _shear_search([_integer_grid(p) for p in (f, g)], seed)


def _shear_search(grids, seed: int):
    """sheared_resultant on the integer grids of the two curves."""
    degrees = [max(map(sum, grid), default=-1) for grid in grids]
    if min(degrees) < 1:
        raise DegenerateInstanceError("degenerate instance: a curve is constant")
    computed = 0
    zero_count = 0
    for s in _shears(seed):
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


def _shears(seed: int):
    """Eight distinct nonzero shears in [-9, 9] from the seed, drawn as they are needed."""
    stream = Stream(derive_seed(seed, 0x5EA2))
    drawn = []
    while len(drawn) < 8:
        s = stream.nonzero_int(9)
        if s not in drawn:
            drawn.append(s)
            yield s


def _integer_grid(p: Polynomial):
    """{(i, j): a_ij} with sum a_ij x^i y^j the primitive integer multiple of a plane curve.

    The multiple is den / num for den the lcm of the denominators and num the
    gcd of the numerators; a third variable that occurs raises DomainError.
    """
    at = {v: i for i, v in enumerate(p.vars)}
    ix, iy = at.pop("x", None), at.pop("y", None)
    if any(e[i] for e in p.terms for i in at.values()):
        raise DomainError("a plane curve lives in x and y alone")
    den = lcm(*[a.denominator for a in p.terms.values()])
    num = gcd(*[a.numerator for a in p.terms.values()])
    return {(0 if ix is None else e[ix], 0 if iy is None else e[iy]):
            a.numerator * (den // a.denominator) // num for e, a in p.terms.items()}


# The primes below 128 and their product, written out so that importing
# computes nothing.  A prime outside the table is not tilted: that costs size,
# never exactness.
_TILT_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
                73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127)
_TILT_PRIMORIAL = 4014476939333036189094441199026045136645885247730


def _tilted(f: Polynomial, g: Polynomial):
    """The integer grids of two plane curves, tilted one prime at a time, and the tilts.

    Returns (grids, ((p, a_p, b_p), ...)): the primitive integer grids of
    F(lambda x, mu y) and G(lambda x, mu y), lambda = prod p^a_p and
    mu = prod p^b_p.  A tilt adds a_p i + b_p j to every valuation of p at
    (i, j).  For patchworked curves (coefficients c t^omega(i, j)) the
    valuations of t's primes carry a trend linear in (i, j), and removing it
    (Viro's patchworking, read one prime at a time) shrinks every entry.  A
    prime's spread in a grid is its largest valuation minus its least; in a
    primitive grid the least is 0.

    * The tilt is the least-squares plane of both grids' valuations at the
      extreme points X of the joint support (the lexicographic least and
      largest points in (i, j) and in (j, i)), slopes rounded and negated;
      a collinear X gives none.
    * Exact skip.  Every nonzero integer (a, b) spreads a i + b j over X by
      at least W = min(h, v), h and v the longest horizontal and vertical
      chords in X (a chord of length h shows |a| h).  So a tilt leaves a
      spread V over X at least W - V, and lowers it only when V > W / 2;
      other primes are skipped.  V is at most the exponent of p in the
      product of a grid's entries at X, so one divisibility test of each
      product skips most primes, and valuations are computed at X only.
    * A tilt is kept only when no entry of either tilted grid is divisible
      by p^V: the prime's spread is then below V, and so below its untilted
      spread.  A prime's valuations after the tilt depend on its own tilt
      alone, so one more pass without the rejected primes is final.
    """
    grids = [_integer_grid(f), _integer_grid(g)]
    keys = grids[0].keys() | grids[1].keys()
    swapped = [(j, i) for i, j in keys]
    (j0, i0), (j1, i1) = min(swapped), max(swapped)
    X = sorted({min(keys), max(keys), (i0, j0), (i1, j1)})
    at_x = [grid.get(e, 0) for grid in grids for e in X]
    # fewer than three extreme points fix no plane, and a grid with no entry at X no valuation
    tilts = _tilts(X, at_x) if len(X) > 2 and 0 not in at_x else []
    while tilts:
        scale = [1, 1, 1, 1]  # lambda = scale[0] / scale[1], mu = scale[2] / scale[3]
        for p, a, b, _, _ in tilts:
            scale[a < 0] *= p ** abs(a)
            scale[2 + (b < 0)] *= p ** abs(b)
        # times the denominators of lambda^top_i and mu^top_j, every factor is an integer
        rows, cols = _powers(scale[0], scale[1], max(keys)[0]), _powers(scale[2], scale[3], j1)
        tilted = []
        for grid in grids:
            scaled = [a * rows[i] * cols[j] for (i, j), a in grid.items()]
            content = gcd(*scaled)
            tilted.append(dict(zip(grid, [a // content for a in scaled])))
        kept = [t for t in tilts if 0 not in [a % t[3] for a in tilted[0].values()]
                and 0 not in [a % t[4] for a in tilted[1].values()]]
        if len(kept) == len(tilts):
            return tilted, tuple(t[:3] for t in tilts)
        tilts = kept
    return grids, ()


def _powers(a: int, b: int, top: int):
    """[a^i b^(top - i) for i = 0, ..., top]."""
    out = [b ** top]
    for _ in range(top):
        out.append(out[-1] // b * a)
    return out


def _tilts(X, at_x):
    """[(p, a_p, b_p, p^V in F, p^V in G), ...] read off the entries at_x at X.

    at_x lists both grids' nonzero entries at the sorted extreme points X,
    grid by grid; see `_tilted`.
    """
    n = len(X)
    # the exponent of p in norms[k] bounds p's spread over X in grid k from above
    norms = [prod(at_x[:n]), prod(at_x[n:])]
    candidates = gcd(_TILT_PRIMORIAL, *norms)
    # W = min(h, v) for the longest horizontal and vertical chords h and v in X
    h = v = 0
    for i, j in X:
        for k, l in X:
            if j == l:
                h = max(h, k - i)
            elif i == k:
                v = max(v, l - j)
    half = min(h, v) // 2
    primes = [p for p in _TILT_PRIMES if not candidates % p
              and not norms[0] % p ** (half + 1) and not norms[1] % p ** (half + 1)]
    if not primes:
        return []
    # least squares: with ci, cj the coordinates of X centred and times n, the
    # slopes of both grids' planes through their values v at X add up to
    # (sum wa v, sum wb v) / det; det is zero exactly when X is collinear
    si, sj = sum(i for i, _ in X), sum(j for _, j in X)
    ci, cj = [n * i - si for i, _ in X], [n * j - sj for _, j in X]
    sii, sjj, sij = sum(map(mul, ci, ci)), sum(map(mul, cj, cj)), sum(map(mul, ci, cj))
    det = (sii * sjj - sij * sij) // n
    if not det:
        return []
    wa = [x * sjj - y * sij for x, y in zip(ci, cj)] * 2
    wb = [y * sii - x * sij for x, y in zip(ci, cj)] * 2
    tilts = []
    for p in primes:
        vals = [_valuation(a, p) for a in at_x]
        v0, v1 = vals[:n], vals[n:]
        spread0, spread1 = max(v0) - min(v0), max(v1) - min(v1)
        if min(spread0, spread1) > half:
            # the mean of the grids' slopes, negated and rounded to the nearest integer
            a = -((sum(map(mul, wa, vals)) + det) // (2 * det))
            b = -((sum(map(mul, wb, vals)) + det) // (2 * det))
            if a or b:
                tilts.append((p, a, b, p ** spread0, p ** spread1))
    return tilts


def _valuation(a: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer a."""
    v = 0
    while not a % p:
        a //= p
        v += 1
    return v


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
        g = dgcd(*candidates)
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
