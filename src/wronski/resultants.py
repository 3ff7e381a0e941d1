"""Resultants of multivariate polynomials by subresultant remainder sequences.

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

The PRS runs over an abstract coefficient ring.  Inputs whose coefficients
live in at most one remaining variable u are routed through dense integer-list
arithmetic, which is where all the heavy elimination work lands; the general
sparse-polynomial ring handles the rest.  On that integer path the u-exponents
are first compressed to their lattice: when k > 1 divides every exponent, the
PRS runs in s = u^k and the result is expanded back, which is exact because
u -> u^k is an injective ring map and the resultant commutes with it.  The
shorter, dense coefficient lists then go through the packed (Kronecker)
products and 2-adic exact divisions of `realroots.dmul` and
`realroots.ddiv_exact` once they reach KRONECKER_MIN terms.  A direct
Sylvester-determinant evaluator is provided as an independent cross-check
for small degrees.
"""

from __future__ import annotations

import time
from math import gcd

from .errors import DomainError
from .polynomial import Polynomial
from .realroots import dcompress, ddiv_exact, dexpand, dexponent_gcd, dmul, dneg, dsub

# -- coefficient ring adapters --------------------------------------------------


class _IntListRing:
    """Univariate integer polynomials as dense ascending lists."""

    @staticmethod
    def is_zero(c):
        return not c

    @staticmethod
    def zero():
        return []

    @staticmethod
    def one():
        return [1]

    @staticmethod
    def mul(a, b):
        return dmul(a, b)

    @staticmethod
    def sub(a, b):
        return dsub(a, b)

    @staticmethod
    def neg(a):
        return dneg(a)

    @staticmethod
    def pow(a, n):
        out = [1]
        for _ in range(n):
            out = dmul(out, a)
        return out

    @staticmethod
    def div_exact(a, b):
        return ddiv_exact(a, b)

    @staticmethod
    def resultant(A, B, deadline):
        """The PRS in s = u^k, k the gcd of every u-exponent of A and B."""
        k = 0
        for c in A + B:
            k = dexponent_gcd(c, k)
        res = _prs_resultant([dcompress(c, k) for c in A], [dcompress(c, k) for c in B],
                             _IntListRing, deadline)
        return None if res is None else dexpand(res, k)


class _PolyRing:
    """Sparse multivariate polynomials sharing a fixed variable tuple."""

    def __init__(self, variables):
        self.vars = tuple(variables)
        self._one = Polynomial.const(1, self.vars)

    @staticmethod
    def is_zero(c):
        return c.is_zero()

    def zero(self):
        return Polynomial.zero(self.vars)

    def one(self):
        return self._one

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def pow(a, n):
        return a ** n

    @staticmethod
    def div_exact(a, b):
        return a.exact_div(b)

    def resultant(self, A, B, deadline):
        return _prs_resultant(A, B, self, deadline)


def _ring_prem(A, B, ring):
    """Pseudo-remainder of coefficient lists: lc(B)^(dA-dB+1) A mod B."""
    dB = len(B) - 1
    lb = B[-1]
    r = list(A)
    steps = len(A) - len(B) + 1
    while r and len(r) - 1 >= dB:
        lead = r[-1]
        r = [ring.mul(c, lb) for c in r]
        shift = len(r) - 1 - dB
        for i, cb in enumerate(B):
            r[shift + i] = ring.sub(r[shift + i], ring.mul(lead, cb))
        while r and ring.is_zero(r[-1]):
            r.pop()
        steps -= 1
    if steps > 0 and r:
        m = ring.pow(lb, steps)
        r = [ring.mul(c, m) for c in r]
    return r


def _prs_resultant(A, B, ring, deadline=None):
    """Subresultant PRS resultant of two coefficient lists over a ring.

    Returns None for the zero result (common factor).  Lists must both be
    nonzero; at least one must have positive degree.
    """
    sign = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            sign = -sign
        A, B = B, A
    if len(B) == 1:
        res = ring.pow(B[0], len(A) - 1)
        return ring.neg(res) if sign < 0 else res
    g = ring.one()
    h = ring.one()
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("resultant computation exceeded its deadline")
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            sign = -sign
        r = _ring_prem(A, B, ring)
        if not r:
            return None
        divisor = ring.mul(g, ring.pow(h, delta))
        A, B = B, [ring.div_exact(c, divisor) for c in r]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = ring.div_exact(ring.pow(g, delta), ring.pow(h, delta - 1))
        if len(B) - 1 == 0:
            break
    dA = len(A) - 1
    res = ring.div_exact(ring.pow(B[0], dA), ring.pow(h, dA - 1))
    return ring.neg(res) if sign < 0 else res


# -- public entry points ----------------------------------------------------------


def resultant(f: Polynomial, g: Polynomial, var: str, deadline=None) -> Polynomial:
    """Sylvester resultant of f and g with respect to var.

    Exact for rational coefficients: the product of resultant_factors, taken
    in the coefficient ring the factors were computed in.
    """
    ring, out, scale, factors = _factors(f, g, var, deadline)
    res = None
    for c, e in factors:
        p = ring.pow(c, e) if e > 1 else c
        res = p if res is None else ring.mul(res, p)
    res = out(res)
    return res * scale if scale != 1 else res


def resultant_factors(f: Polynomial, g: Polynomial, var: str, deadline=None):
    """Res_var(f, g) as ((factor, exponent), ...), whose product it is.

    Inputs y^a Q1(y^k), y^b Q2(y^k) with k > 1 give the factors of the
    coset identity in the module docstring; otherwise the one factor is the
    whole resultant.  The content scale content_f^deg(g) content_g^deg(f)
    comes first as a constant factor when it is not 1; a zero resultant has
    a zero factor.
    """
    _, out, scale, factors = _factors(f, g, var, deadline)
    body = tuple((out(c), e) for c, e in factors)
    head = ((Polynomial.const(scale, body[0][0].vars), 1),) if scale != 1 else ()
    return head + body


def _factors(f, g, var, deadline):
    """(ring, to_polynomial, scale, [(factor, exponent), ...]).

    Res_var(f, g) = scale * prod to_polynomial(factor)^exponent, where scale
    is the rational content and the factors live in ring: dense integer lists
    when the coefficients involve at most one variable.
    """
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant needs nonzero inputs")
    df, dg = f.degree(var), g.degree(var)
    if df == 0 and dg == 0:
        raise DomainError(f"both inputs have degree 0 in {var!r}")
    if df == 0 or dg == 0:
        base, e = (f, dg) if df == 0 else (g, df)
        return _PolyRing(base.vars), _same, 1, [(base, e)]
    cf, cg = f.content(), g.content()
    A = f.primitive_part().as_univariate(var)
    B = g.primitive_part().as_univariate(var)
    rest = A[0].vars
    scale = cf ** dg * cg ** df
    live = [v for v in rest if any(c.degree(v) > 0 for c in A + B)]
    if len(live) <= 1:
        u = live[0] if live else None
        ring = _IntListRing
        A, B = [c.dense(u) for c in A], [c.dense(u) for c in B]

        def out(c):
            return Polynomial.from_dense(c, u, rest)
    else:
        ring, out = _PolyRing(rest), _same
    return ring, out, scale, _coset_factors(A, B, ring, deadline)


def _same(c):
    return c


def _coset_factors(A, B, ring, deadline):
    """Res(A, B) of coefficient lists as [(factor, exponent), ...].

    A = y^a Q1(y^k), B = y^b Q2(y^k) with k the gcd of every exponent gap of
    both; for k > 1 the PRS runs on Q1, Q2 (see the module docstring).
    """
    a = next(i for i, c in enumerate(A) if not ring.is_zero(c))
    b = next(i for i, c in enumerate(B) if not ring.is_zero(c))
    if a and b:  # y divides both
        return [(ring.zero(), 1)]
    # gcd(0, k2) = k2 when A[a:] is a monomial; both cannot be, since a b = 0,
    # so k >= 1
    k = gcd(dexponent_gcd(A[a:]), dexponent_gcd(B[b:]))
    factors = []
    if k > 1:
        if b:  # Res(A, y) = (-1)^deg A A(0)
            factors.append((ring.neg(A[0]) if (len(A) - 1) % 2 else A[0], b))
        if a:  # Res(y, B) = B(0)
            factors.append((B[0], a))
        A, B = dcompress(A[a:], k), dcompress(B[b:], k)
    res = ring.resultant(A, B, deadline)
    if res is None:
        return [(ring.zero(), 1)]
    factors.append((res, k))
    return factors


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
