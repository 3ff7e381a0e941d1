"""Resultants of multivariate polynomials by subresultant remainder sequences.

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
from fractions import Fraction

from .errors import DomainError
from .polynomial import Polynomial
from .realroots import dcompress, ddiv_exact, dexpand, dexponent_gcd, dmul, dneg, dstrip, dsub

# -- coefficient ring adapters --------------------------------------------------


class _IntListRing:
    """Univariate integer polynomials as dense ascending lists."""

    @staticmethod
    def is_zero(c):
        return not c

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


class _PolyRing:
    """Sparse multivariate polynomials sharing a fixed variable tuple."""

    def __init__(self, variables):
        self.vars = tuple(variables)
        self._one = Polynomial.const(1, self.vars)

    @staticmethod
    def is_zero(c):
        return c.is_zero()

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

    Exact for rational coefficients; the integer fast path clears contents
    first and restores them as content_f^deg(g) * content_g^deg(f).
    """
    if f.is_zero() or g.is_zero():
        raise DomainError("resultant needs nonzero inputs")
    df, dg = f.degree(var), g.degree(var)
    if df == 0 and dg == 0:
        raise DomainError(f"both inputs have degree 0 in {var!r}")
    if df == 0:
        return f ** dg
    if dg == 0:
        return g ** df
    cf, cg = f.content(), g.content()
    F, G = f.primitive_part(), g.primitive_part()
    A = F.as_univariate(var)
    B = G.as_univariate(var)
    rest = A[0].vars
    scale = cf ** dg * cg ** df
    live = [v for v in rest if any(c.degree(v) > 0 for c in A + B)]
    if len(live) <= 1:
        u = live[0] if live else None
        A_l = [_dense_in(c, u) for c in A]
        B_l = [_dense_in(c, u) for c in B]
        # u -> u^k is an injective ring map, so the resultant commutes with it
        k = 0
        for c in A_l + B_l:
            k = dexponent_gcd(c, k)
        res = _prs_resultant([dcompress(c, k) for c in A_l], [dcompress(c, k) for c in B_l],
                             _IntListRing, deadline)
        if res is None:
            return Polynomial.zero(rest)
        out = _from_dense(dexpand(res, k), u, rest)
    else:
        ring = _PolyRing(rest)
        res = _prs_resultant(A, B, ring, deadline)
        out = Polynomial.zero(rest) if res is None else res
    return out * scale if scale != 1 else out


def _dense_in(c: Polynomial, var):
    if var is None or var not in c.vars:
        v = c.constant_value()
        return [] if v == 0 else [int(v)]
    i = c.vars.index(var)
    d = c.degree(var)
    out = [0] * (d + 1)
    for e, v in c.terms.items():
        out[e[i]] = int(v)
    return dstrip(out)


def _from_dense(lst, var, rest) -> Polynomial:
    if var is None:
        return Polynomial.const(lst[0] if lst else 0, rest)
    i = rest.index(var)
    terms = {}
    base = [0] * len(rest)
    for k, c in enumerate(lst):
        if c:
            e = list(base)
            e[i] = k
            terms[tuple(e)] = c
    return Polynomial(rest, terms)


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
