"""Resultants of multivariate polynomials, each by one subresultant PRS on integers.

Before any remainder sequence runs, each input, as a coefficient list in the
eliminated variable y, is written as y^a Q(y^k1): a is its lowest exponent
and k1 the gcd of its exponent gaps.  With k = gcd(k1, k2) > 1 for
F = y^a Q1(y^k) and G = y^b Q2(y^k):

* Res(F, G) = 0 when a > 0 and b > 0 (y divides both);
* otherwise Res(F, G) = ((-1)^deg F F(0))^b * G(0)^a * Res_z(Q1, Q2)^k.

Both are exact.  The resultant is multiplicative in each argument, and
Res(F, y) = (-1)^deg F F(0), Res(y, G) = G(0).  For Q1 = c prod (z - z_i) of
degree m and Q2 of degree n, Q1(y^k) = c prod (y^k - z_i) has leading
coefficient c and, over each z_i, the k roots w with w^k = z_i (counted with
multiplicity, also for z_i = 0), so Res(Q1(y^k), Q2(y^k)) = c^(nk) prod_i
Q2(z_i)^k = Res_z(Q1, Q2)^k.  `resultant_factors` returns these factors and
`resultant` their product; the remainder sequence then runs at degree
deg F / k instead of deg F.  With k = 1 the whole resultant is one factor.

The remainder sequence itself runs on plain integers.  Every coefficient of
A = sum A_i y^i and B = sum B_j y^j (primitive, integral, of degrees dA and
dB >= 1 in y) is a polynomial in the remaining variables u_1, ..., u_n, and
is mapped to one integer by evaluating it at a single Kronecker point:

* Grading.  Each variable u = u_v is first graded, so that the image is
  only as large as the support.  For every integer c, negative too, two
  identities hold in the Laurent ring: Res(A(u^c y), B(u^c y)) =
  u^(c dA dB) Res(A, B) (scaling y by L gives Res(f(L y), g(L y)) =
  L^(dA dB) Res(f, g)), and Res(u^m A, B) = u^(m dB) Res(A, B) (the
  resultant is homogeneous of degree dB in the coefficients of A).  So the
  scaled inputs, coefficient i multiplied by u^(c i), are stripped of their
  lowest u-exponents m_A and m_B (negative when c is), which makes both
  polynomials again, and u is compressed to s = u^k with k the gcd of every
  remaining exponent of both (an injective ring map that commutes with the
  resultant).  Then Res(A, B) = u^(dB m_A + dA m_B - c dA dB) Res_s(A', B'),
  exactly for every c: the choice of c changes only the size of the image.
  Since c i cancels in the exponent gaps inside one coefficient, k divides
  their gcd K.  `_grading` takes the c with the fewest slots over all
  integers without a scan: dB top_A + dA top_B is convex in c, its least
  point is read off the hull edges of the exponents, and k depends only on
  c modulo a period T dividing K, so the two points of each class mod T
  around that least point are the only ones tried.
* Degrees.  Every term of the Sylvester determinant is a product of dB
  coefficients of A' and dA of B', so deg_s Res_s(A', B') < D_v =
  (dB top_A + dA top_B) / k + 1, with top_A and top_B the largest
  exponents of the scaled and stripped inputs.  The map s_1 -> 2^W, s_2 -> 2^(W D_1),
  s_3 -> 2^(W D_1 D_2), ... sends the monomials of such polynomials to
  distinct powers 2^(W m), m < D_1 ... D_n.
* Coefficients.  Multiplying by monomials keeps every coefficient and so
  every torus norm.  On the torus |u_v| = 1, Hadamard's inequality bounds
  |Res| by the product of the Euclidean norms of the Sylvester rows, or of
  its columns, and each entry A_i by ||A_i||_1: the rows give
  (sum_i ||A_i||_1^2)^(dB/2) (sum_j ||B_j||_1^2)^(dA/2), and column p the
  square root of the sum of ||A_j||_1^2 over j in [p - dB + 1, p] and of
  ||B_j||_1^2 over j in [p - dA + 1, p].  Each coefficient of Res, an
  average of Res u^-e over the torus, is bounded by the smaller product.
  W is chosen so that this bound is below 2^(W-1) (and rounded up to whole
  bytes), so the image of Res has balanced base-2^W digits that are exactly
  its coefficients; the bound also covers every input coefficient
  (`_slot_bytes`).
* The map is a ring homomorphism, and the leading coefficients A'_dA and
  B'_dB are nonzero polynomials of degrees below D_v with coefficients below
  2^(W-1), so their images are nonzero (checked all the same): the
  resultant of the images is the image of the resultant.

The subresultant PRS computes the resultant of its integer inputs exactly
over Z, whatever degree sequence it takes, so reading the balanced digits
of its result (`_unpack`) returns Res.  There is one PRS, over a batch of
points (Collins's evaluation-point PRS run column-wise): each coefficient
is a column of integer values, one per point, and each pseudo-remainder
and checked exact division runs over whole columns.  Points whose
remainder drops degree apart from the rest are split off and go on as a
batch of their own, so each point follows its own degree sequence.  The
Kronecker point above is a batch of one, whose exact divisions are
`realroots.dquo_exact`: it switches to a 2-adic quotient, checked by
multiplying back, for the Mbit-sized integers of the largest eliminations.

Plane curves with constant leading y-coefficients take
`interpolated_resultant` instead: one batch of mn + 1 integer abscissas,
then exact interpolation (the degree bound is proved there).  A direct
Sylvester-determinant evaluator is provided as an independent cross-check
for small degrees.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from operator import mul, sub

from .errors import DomainError, check_deadline
from .polynomial import Polynomial
from .realroots import dcompress, dexponent_gcd, dinterpolate, dquo_exact


def _prs_resultant(A, B):
    """Res(A, B) at every point of a batch, by one subresultant PRS run column-wise.

    Coefficient i of A is the column A[i] of its values at the points (likewise
    B); both have positive degree and leading values nonzero at every point.
    Each pseudo-remainder and exact division runs over whole columns.  Points
    whose remainder drops degree apart from the rest go on as their own batch.
    Returns the resultant at each point, 0 where A and B share a factor.
    """
    out = [0] * len(A[0])
    sign = 1
    if len(A) < len(B):
        if (len(A) - 1) * (len(B) - 1) % 2:
            sign = -sign
        A, B = B, A
    ones = [1] * len(out)
    batches = [(range(len(out)), A, B, ones, ones, sign)]  # (points, A, B, g, h, sign)
    while batches:
        points, A, B, g, h, sign = batches.pop()
        while len(B) > 1:
            check_deadline("resultant computation")
            dA, dB = len(A) - 1, len(B) - 1
            delta = dA - dB
            if dA % 2 and dB % 2:
                sign = -sign
            divisor = [x * y ** delta for x, y in zip(g, h)]
            A, B, g = B, _divide(_prem(A, B), divisor), B[-1]
            if delta == 1:
                h = g
            elif delta > 1:
                h = _divide([[x ** delta for x in g]], [y ** (delta - 1) for y in h])[0]
            if not all(B[-1]):  # some remainders drop degree: regroup the points by it
                batches.extend(_regrouped(points, A, B, g, h, sign))
                break
        else:
            dA = len(A) - 1
            top = _divide([[b ** dA for b in B[0]]], [y ** (dA - 1) for y in h])[0]
            for p, x in zip(points, top):
                out[p] = sign * x
    return out


def _prem(A, B):
    """lc(B)^(dA - dB + 1) A mod B at every point: dB columns, vanishing top values kept."""
    lb, low = B[-1], B[:-1]
    r = list(A)
    for _ in range(len(A) - len(B) + 1):
        lead = r.pop()  # cancelled by lead * lb
        shift = len(r) - len(low)
        r[:shift] = [list(map(mul, col, lb)) for col in r[:shift]]
        r[shift:] = [list(map(sub, map(mul, col, lb), map(mul, lead, bcol)))
                     for col, bcol in zip(r[shift:], low)]
    return r


def _divide(r, d):
    """The columns of r divided by the column d, each division checked exact (ValueError).

    A batch of one takes `realroots.dquo_exact` on all of r at once, so Mbit
    operands share one 2-adic inverse.
    """
    if len(d) == 1:
        return [[q] for q in dquo_exact([col[0] for col in r], d[0])]
    out = []
    for col in r:
        q, rem = zip(*map(divmod, col, d))
        if any(rem):
            raise ValueError("not an exact division")
        out.append(list(q))
    return out


def _regrouped(points, A, B, g, h, sign):
    """One batch per degree that B takes at the points; points where B vanishes are dropped."""
    groups = {}
    for i in range(len(points)):
        deg = next((k for k in range(len(B) - 1, -1, -1) if B[k][i]), -1)
        if deg >= 0:
            groups.setdefault(deg, []).append(i)
    for deg, idx in groups.items():
        A1, B1, (g1, h1) = ([[col[i] for i in idx] for col in cols]
                            for cols in (A, B[:deg + 1], (g, h)))
        yield [points[i] for i in idx], A1, B1, g1, h1, sign


def interpolated_resultant(A, B):
    """Res_y(A, B) as an integer list in x, by evaluation and interpolation.

    A = sum_j A_j(x) y^j and B = sum_j B_j(x) y^j are given by their rows:
    A_j is an ascending integer list in x of degree at most m - j, the top
    row A_m a nonzero constant (likewise B, n >= 1), as for plane curves of
    total degree m and n with a constant leading y-coefficient.  The
    resultant u(x) is evaluated at the mn + 1 integer abscissas 0, 1, -1,
    2, -2, ..., by one PRS over that batch of points, and interpolated exactly
    (`realroots.dinterpolate`).  Both facts this rests on:

    * Specialisation is exact.  Res_y(A, B) is the determinant of the
      Sylvester matrix built with the formal degrees m and n.  Since A_m and
      B_n are nonzero constants, A(x0, y) and B(x0, y) keep the degrees m
      and n at every x0, so their Sylvester matrix is the specialised one
      and u(x0) = Res_y(A(x0, y), B(x0, y)).
    * deg_x u <= mn (Bezout).  Order the Sylvester columns p = 0, ..., m+n-1
      by ascending powers of y (reversing them only changes the sign): A-row
      k (k < n) holds A_j in column p = j + k, B-row k (k < m) holds B_j in
      column p = j + k.  Each entry's degree is then at most rho_row +
      kappa_col, with rho = m + k on A-row k, rho = n + k on B-row k and
      kappa_p = -p, because deg A_j <= m - j = m + k - p and deg B_j <=
      n + k - p (zero entries need no bound).  Each term of the determinant
      takes one entry from every row and every column, so its degree is at
      most sum rho + sum kappa = (mn + n(n-1)/2) + (mn + m(m-1)/2)
      - (m+n)(m+n-1)/2 = mn.

    So u has degree at most mn and integer coefficients, and mn + 1
    distinct values determine it.
    """
    m, n = len(A) - 1, len(B) - 1
    xs = [(k + 1) // 2 if k % 2 else -(k // 2) for k in range(m * n + 1)]
    values = _prs_resultant([_values_at(row, xs) for row in A], [_values_at(row, xs) for row in B])
    return dinterpolate(xs, values)


def _values_at(a, xs):
    """[a(x) for x in xs] for an ascending integer list a (zeros for the empty list)."""
    acc = [0] * len(xs)
    for c in reversed(a):
        acc = [v * x + c for v, x in zip(acc, xs)]
    return acc


# -- public entry points ----------------------------------------------------------


def resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Sylvester resultant of f and g with respect to var.

    Exact for rational coefficients: the product of resultant_factors, with
    the constant factors multiplied as numbers.
    """
    factors = resultant_factors(f, g, var)
    scale, res = 1, None
    for c, e in factors:
        if c.is_constant():
            scale *= c.constant_value() ** e
        else:
            p = c ** e if e > 1 else c
            res = p if res is None else res * p
    if res is None:  # every factor is constant; they share their variables
        return Polynomial.const(scale, factors[0][0].vars)
    return res * scale if scale != 1 else res


def resultant_factors(f: Polynomial, g: Polynomial, var: str):
    """Res_var(f, g) as ((factor, exponent), ...), whose product it is.

    Inputs y^a Q1(y^k), y^b Q2(y^k) with k > 1 give the factors of the
    coset identity in the module docstring; otherwise the one factor is the
    whole resultant.  The content scale content_f^deg(g) content_g^deg(f)
    comes first as a constant factor when it is not 1; a zero resultant has
    a zero factor.
    """
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant needs nonzero inputs")
    df, dg = f.degree(var), g.degree(var)
    if df == 0 and dg == 0:
        raise DomainError(f"both inputs have degree 0 in {var!r}")
    if df == 0 or dg == 0:
        return ((f, dg),) if df == 0 else ((g, df),)
    cf, cg = f.content(), g.content()
    A = (f if cf == 1 else f * (1 / cf)).as_univariate(var)
    B = (g if cg == 1 else g * (1 / cg)).as_univariate(var)
    scale = cf ** dg * cg ** df
    head = ((Polynomial.const(scale, A[0].vars), 1),) if scale != 1 else ()
    return head + tuple(_coset_factors(A, B))


def _coset_factors(A, B):
    """Res(A, B) of coefficient lists as [(factor, exponent), ...].

    A = y^a Q1(y^k), B = y^b Q2(y^k) with k the gcd of every exponent gap of
    both; for k > 1 the PRS runs on Q1, Q2 (see the module docstring).
    """
    a = next(i for i, c in enumerate(A) if c)
    b = next(i for i, c in enumerate(B) if c)
    if a and b:  # y divides both
        return [(Polynomial.zero(A[0].vars), 1)]
    # gcd(0, k2) = k2 when A[a:] is a monomial; both cannot be, since a b = 0,
    # so k >= 1
    k = gcd(dexponent_gcd(A[a:]), dexponent_gcd(B[b:]))
    factors = []
    if k > 1:
        if b:  # Res(A, y) = (-1)^deg A A(0)
            factors.append((-A[0] if (len(A) - 1) % 2 else A[0], b))
        if a:  # Res(y, B) = B(0)
            factors.append((B[0], a))
        A, B = dcompress(A[a:], k), dcompress(B[b:], k)
    if len(A) == 1 or len(B) == 1:  # Res(c, B) = c^deg B, Res(A, c) = c^deg A
        c, e = (A[0], len(B) - 1) if len(A) == 1 else (B[0], len(A) - 1)
        factors.append((c ** e, k))
    else:
        factors.append((_one_point_resultant(A, B), k))
    return factors


def _grading(spans, v, gap, dA, dB):
    """(D, c, k, (m_A, m_B)) for the variable u_v: the scale c with the fewest slots D.

    spans holds, per input, (i, lowest, highest exponents) of each nonzero
    coefficient, i ascending; gap is the gcd of the u_v-exponent gaps inside
    single coefficients, which every usable k divides.  After y -> u_v^c y,
    the inputs' lowest u_v-exponents m_A, m_B are stripped and u_v^k is
    packed (see the module docstring); k = 0 when stripping leaves no u_v.
    """
    # f(c) = dB top_A(c) + dA top_B(c), each top the upper envelope of the
    # lines hi + c i less the lower envelope of lo + c i, is convex: its slope,
    # -dB span_A - dA span_B far left, rises by weight (x1 - x0) at the
    # breakpoint c = (y0 - y1) / (x1 - x0) of each hull edge of the points (i, e)
    envelopes, rises, fall, forms = [], [], 0, []
    for rows, weight in zip(spans, (dB, dA)):
        i0, lo0, _ = rows[0]
        forms += [(lo[v] - lo0[v], i - i0) for i, lo, _ in rows[1:]]
        fall += weight * (rows[-1][0] - i0)
        for sign, points in ((1, [(i, hi[v]) for i, _, hi in rows]),
                             (-1, [(i, lo[v]) for i, lo, _ in rows])):
            hull = points[:2]  # upper (sign 1) or lower (-1) hull
            for x, y in points[2:]:
                while len(hull) > 1:
                    (x0, y0), (x1, y1) = hull[-2], hull[-1]
                    if sign * ((y1 - y0) * (x - x1) - (y - y1) * (x1 - x0)) > 0:
                        break
                    hull.pop()
                hull.append((x, y))
            envelopes.append((sign * weight, hull))
            rises += [(-((y1 - y0) // (x1 - x0)), weight * (x1 - x0))
                      for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    # c1, the least integer where the right slope is >= 0: f is least at
    # some point of (c1 - 1, c1]
    rises.sort()
    c1 = next((c for c, total in zip((c for c, _ in rises), accumulate(w for _, w in rises))
               if total >= fall), 0)

    seen = {}

    def spread(c):  # f(c)
        if c not in seen:
            f = 0
            for w, hull in envelopes:
                vals = [e + c * i for i, e in hull]
                f += w * (max(vals) if w > 0 else min(vals))
            seen[c] = f
        return seen[c]

    # k(c), the gcd of gap and of d + c n over the forms (d, n) (a row's lowest
    # exponent and index less those of its input's first row), divides each
    # n_q (d + c n) - n (d_q + c n_q), so it depends on c modulo their gcd T.  On each class c = r mod T the
    # convex f is least at one of the class points around f's least point:
    # the last at or below c1 - 1 and the next.  A class whose k cannot beat
    # the best found, given f >= its least integer value, is skipped.
    dq, nq = forms[0]
    period = gcd(gap, *[nq * d - n * dq for d, n in forms])
    if period:
        least, best = min(spread(c1 - 1), spread(c1)), None
        ks = [gcd(period, *[d + r * n for d, n in forms]) for r in range(period)]
        for r in sorted(range(period), key=ks.__getitem__, reverse=True):
            k = ks[r]
            if best and -(-least // k) + 1 >= best[0]:
                break
            low = c1 - 1 - (c1 - 1 - r) % period
            for c in (low, low + period):
                tried = (spread(c) // k + 1, abs(c), c, k)
                if best is None or tried < best:
                    best = tried
    else:
        # T = 0: every form is a multiple of one line (gap = 0, so lo = hi),
        # f and k are multiples of its modulus, and only its root, where f is
        # least, differs from the other c
        k = gcd(gap, *[d + c1 * n for d, n in forms])
        best = (spread(c1) // k + 1 if k else 1, 0, c1, k)
    slots, _, c, k = best
    return slots, c, k, [min([e + c * i for i, e in hull]) for w, hull in envelopes if w < 0]


def _slot_bytes(A, B) -> int:
    """Bytes per slot: 2^(W-1) exceeds the Hadamard bound on Res(A, B) over the torus.

    Column p of the Sylvester matrix holds A_j for j in [p - dB + 1, p] and
    B_j for j in [p - dA + 1, p]; every row holds all of A or all of B.  The
    smaller of the row and the column products of squared L1 norms bounds
    |Res|^2.  Both also bound every input coefficient: each A_j and B_j sits
    in some row and some column, and every row and column holds a nonzero
    integral entry (a column p < min(dA, dB) holds A_0 and B_0, of which one
    is nonzero, every other column a leading coefficient).
    """
    dA, dB = len(A) - 1, len(B) - 1
    norms_a = [sum(map(abs, c.terms.values())) ** 2 for c in A]
    norms_b = [sum(map(abs, c.terms.values())) ** 2 for c in B]
    rows = sum(norms_a) ** dB * sum(norms_b) ** dA
    cols = 1
    for p in range(dA + dB):
        cols *= sum(norms_a[max(p - dB + 1, 0):p + 1]) + sum(norms_b[max(p - dA + 1, 0):p + 1])
    # |every coefficient| <= min(rows, cols)^(1/2) < 2^(w-1)
    return (min(rows, cols).bit_length() + 1) // 2 // 8 + 1


def _bias(n: int, nbytes: int) -> int:
    """sum of 2^(w-1) 2^(w i) over n slots of w = 8 nbytes bits."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def _pack(a, nbytes: int) -> int:
    """a(2^w) for w = 8 nbytes; every |coefficient| must be below 2^(w-1)."""
    half = 1 << (8 * nbytes - 1)
    raw = b"".join([(c + half).to_bytes(nbytes, "little") for c in a])
    return int.from_bytes(raw, "little") - _bias(len(a), nbytes)


def _unpack(x: int, n: int, nbytes: int):
    """The n balanced base-2^w digits of x modulo 2^(w n), lowest first."""
    half = 1 << (8 * nbytes - 1)
    size = n * nbytes
    raw = ((x + _bias(n, nbytes)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    return [int.from_bytes(raw[i:i + nbytes], "little") - half
            for i in range(0, size, nbytes)]


def _one_point_resultant(A, B) -> Polynomial:
    """Res(A, B) of integral coefficient lists of positive degree, by one integer PRS.

    Each variable is graded (`_grading`), the coefficients are evaluated at
    the Kronecker point of the module docstring, and the result is read back
    from its balanced base-2^W digits.
    """
    variables = A[0].vars
    dA, dB = len(A) - 1, len(B) - 1
    n = len(variables)
    gaps, spans = [0] * n, ([], [])
    for coeffs, rows in zip((A, B), spans):
        for i, p in enumerate(coeffs):
            if p.terms:
                first = next(iter(p.terms))
                lo, hi = list(first), list(first)
                for e in p.terms:
                    for v, x in enumerate(e):
                        if x != first[v]:
                            gaps[v] = gcd(gaps[v], x - first[v])
                            if x < lo[v]:
                                lo[v] = x
                            elif x > hi[v]:
                                hi[v] = x
                rows.append((i, lo, hi))
    # Res(A, B) = u_v^(dB m_A + dA m_B - c dA dB) Res(scaled and stripped inputs)
    highest = [max(col) for col in zip(*[hi for rows in spans for _, _, hi in rows])]
    offset, live, size = [0] * n, [], 1  # live: (v, c, k, (m_A, m_B), D, stride)
    for v in range(n):
        if highest[v]:  # else u_v does not occur
            slots, c, k, lows = _grading(spans, v, gaps[v], dA, dB)
            offset[v] = dB * lows[0] + dA * lows[1] - c * dA * dB
            if k:
                live.append((v, c, k, lows, slots, size))
                size *= slots
    nbytes = _slot_bytes(A, B)

    def at_point(coeffs, side):
        out = []
        for i, p in enumerate(coeffs):
            # u_v^e of coefficient i sits in slot (e + c i - m) / k of u_v
            shifts = [(v, c * i - lows[side], k, stride) for v, c, k, lows, _, stride in live]
            slots = {sum((e[v] + s) // k * stride for v, s, k, stride in shifts): x
                     for e, x in p.terms.items()}
            out.append(_pack([slots.get(j, 0) for j in range(max(slots, default=0) + 1)],
                             nbytes))
        return out

    A, B = at_point(A, 0), at_point(B, 1)
    if not (A[-1] and B[-1]):
        raise ArithmeticError("a leading coefficient vanishes at the Kronecker point")
    terms = {}
    res = _prs_resultant([[c] for c in A], [[c] for c in B])[0]
    for j, x in enumerate(_unpack(res, size, nbytes)):
        if x:
            e = list(offset)
            for v, _, k, _, slots, stride in live:
                e[v] += j // stride % slots * k
            terms[tuple(e)] = x
    return Polynomial(variables, terms)


def sylvester_matrix(f: Polynomial, g: Polynomial, var: str):
    """The (df+dg)-square Sylvester matrix with entries in the other variables."""
    df, dg = f.degree(var), g.degree(var)
    if df <= 0 or dg <= 0:
        raise DomainError("sylvester matrix needs positive degrees")
    A = f.as_univariate(var)
    B = g.as_univariate(var)
    rest = A[0].vars
    zero = Polynomial.zero(rest)
    n = df + dg
    rows = []
    for k in range(dg):
        row = [zero] * n
        for i, c in enumerate(reversed(A)):  # descending coefficients
            row[k + i] = c
        rows.append(row)
    for k in range(df):
        row = [zero] * n
        for i, c in enumerate(reversed(B)):
            row[k + i] = c
        rows.append(row)
    return rows


def sylvester_resultant(f: Polynomial, g: Polynomial, var: str) -> Polynomial:
    """Resultant via direct determinant expansion; independent of the PRS path.

    Exponential in the matrix size, intended for cross-checks with df+dg <= 9.
    """
    rows = sylvester_matrix(f, g, var)
    n = len(rows)
    rest = rows[0][0].vars
    cache = {}

    def minor(row: int, mask: int) -> Polynomial:
        if row == n:
            return Polynomial.const(1, rest)
        key = mask
        if key in cache:
            return cache[key]
        total = Polynomial.zero(rest)
        sign = 1
        for col in range(n):
            bit = 1 << col
            if mask & bit:
                continue
            entry = rows[row][col]
            if not entry.is_zero():
                sub = minor(row + 1, mask | bit)
                term = entry * sub
                total = total + (term if sign > 0 else -term)
            sign = -sign
        cache[key] = total
        return total

    return minor(0, 0)
