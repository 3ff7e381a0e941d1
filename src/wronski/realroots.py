"""Univariate integer polynomials: gcds, real-root counts and isolation.

Everything is exact.  A polynomial keeps its squarefree part and its
isolating intervals once computed, so every count, isolation and refinement
of it shares one gcd, and each polynomial is isolated once.

* Gcd.  `dgcd` is the modular gcd (Brown 1971; Collins): Euclid in F_p[x]
  for primes p below 2^30, images of least degree scaled to leading
  coefficient gcd(lc a, lc b) and combined by the Chinese remainder theorem.
  It is exact because nothing is returned before exact division over Z has
  shown that the primitive candidate divides both operands; a candidate of
  the least image degree that does is the gcd (see "gcds modulo primes"
  below).  The primes are CERTIFICATE_PRIMES, then the primes below them in
  descending order, found on demand by deterministic Miller-Rabin; nothing
  is computed at import.  Below 2^30 a residue is one CPython digit and a
  product of two at most two, so Euclid runs on the smallest big integers;
  a gcd with wider coefficients simply takes more primes.  `dgcd` takes
  any number of operands and folds their gcd in their common exponent
  lattice: gcd(a(x^g), b(x^g)) = gcd(a, b)(x^g).
* Squarefree part.  `squarefree_part` works in the polynomial's own
  lattice: for p = x^m q(x^g) with q(0) != 0 it is x^min(m, 1) s(x^g), s the
  cofactor of the modular gcd of the primitive q and its derivative, and
  `is_squarefree` compares its degree.  The first prime not dividing the
  leading coefficient usually gives a unit image, which proves q squarefree
  over Q at once and keeps it as its own squarefree part; any other outcome
  is decided by the exact gcd.
* Real roots.  One engine, Descartes-rule bisection (Collins-Akritas) on
  the squarefree part in integer arithmetic alone: x = 0 is taken apart,
  each half-line is mapped into (0, 1) by a power-of-two root bound, and
  the subdivision runs on integer Bernstein coefficients (Rouillier and
  Zimmermann 2004; Mourrain, Rouillier and Roy 2005), read once per
  half-line from one Taylor shift.  A node's sign variations are its
  Descartes count, and one de Casteljau pass of integer additions and
  shifts yields both halves of a node split; a root at a midpoint is
  divided out of both in Bernstein form.  A node narrower than half of
  Mahler's root separation bound cannot count two roots, so one that does
  raises DomainError instead of splitting on.  It returns isolating data
  (open dyadic intervals with one root each, dyadic points for roots met
  at a midpoint), kept on the squarefree part, which is thus subdivided
  once; `count_real_roots` is its length and `sturm_count`
  counts (a, b] as rank(b) - rank(a), rank(x) being the number of roots at
  or below x.  Isolation walks the bisection tree the Sturm chain once
  drove (breaks at the Cauchy bounds, 0 and exact roots found; a node split
  while it holds two roots or more; a restart on the deflated polynomial,
  ranked as the squarefree part less the roots divided out, when a split
  point is a root) with exact rank differences as its counts, so the
  intervals and their refinements, which tests and the meta_report payloads
  pin, are unchanged.  Signs at rational points n/d
  are taken in integers, from d^deg q(n/d) for the primitive squarefree
  part q (positive leading coefficient), and an exact rational root is
  divided out as the integer factor d x - n.  Intervals returned by the
  isolator are pairwise disjoint and each contains exactly one distinct
  real root; exact rational roots come back as degenerate [r, r] intervals.
  Each gcd prime, count, subdivision node and bisection step checks the run
  deadline (`errors.deadline`).

The integer-list kernels `dmul` and `ddiv_exact` are schoolbook loops.
`dprem_columns` is the pseudo-remainder of the resultant PRS, run over the
columns of a batch of points, and `dprem` its batch of one.
Integer quotients (`dquo_exact`) switch on size: `divmod` while the quotient
or the divisor is below QUOTIENT_2ADIC_BITS, a 2-adic quotient (Jebelean)
from there on, each checked; an inexact division raises ValueError.  They
serve the exact divisions of the resultant PRS at a single point, and
`dinterpolate` (Newton interpolation at integer nodes, equally checked) its
interpolated form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, gcd, lcm
from operator import add, mul, ne, or_, sub

from .errors import DomainError, check_deadline

# -- dense integer coefficient lists (ascending) -------------------------------


def dstrip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def dneg(a):
    return [-c for c in a]


def dmul(a, b):
    """Product of integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return dstrip(out)


def dderiv(a):
    return dstrip([k * c for k, c in enumerate(a)][1:])


def dcontent(a) -> int:
    g = 0
    for c in a:
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def dprimitive(a):
    g = dcontent(a)
    if g in (0, 1):
        return list(a)
    return [c // g for c in a]


def ddiv_exact(a, b):
    """Exact division of integer polynomials; raises ValueError if not exact."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    r = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        num = r[k + len(b) - 1]
        if num % lb:
            raise ValueError("not an exact division")
        q = num // lb
        out[k] = q
        if q:
            for i, cb in enumerate(b):
                r[k + i] -= q * cb
    if any(r):
        raise ValueError("not an exact division")
    return dstrip(out)


def dprem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a mod b, integer arithmetic.

    The batch of one of `dprem_columns`, stripped.
    """
    if not b:
        raise ZeroDivisionError("pseudo-division by zero")
    return dstrip([col[0] for col in dprem_columns([[c] for c in a], [[c] for c in b])])


def dprem_columns(A, B):
    """lc(B)^(dA - dB + 1) A mod B at every point of a batch, for dA >= dB: dB columns.

    Coefficient i of A is the column A[i] of its values at the points
    (likewise B); vanishing top values are kept.
    """
    lb, low = B[-1], B[:-1]
    r = list(A)
    for _ in range(len(A) - len(B) + 1):
        lead = r.pop()  # cancelled by lead * lb
        shift = len(r) - len(low)
        r[:shift] = [list(map(mul, col, lb)) for col in r[:shift]]
        r[shift:] = [list(map(sub, map(mul, col, lb), map(mul, lead, bcol)))
                     for col, bcol in zip(r[shift:], low)]
    return r


def dexponent_gcd(a, g: int = 0) -> int:
    """gcd of g and every positive exponent carrying a nonzero coefficient of a."""
    for k in range(1, len(a)):
        if a[k]:
            g = gcd(g, k)
            if g == 1:
                break
    return g


def dcompress(a, g: int):
    """Q with a(t) = Q(t^g); g must divide every exponent of a (g <= 1: a copy)."""
    return a[::g] if g > 1 else list(a)


def dexpand(a, g: int):
    """a(t^g) from a(t)."""
    if g <= 1:
        return list(a)
    out = [0] * ((len(a) - 1) * g + 1) if a else []
    out[::g] = a
    return out


def dinterpolate(xs, values):
    """The integer polynomial of degree below len(xs) through (xs[k], values[k]).

    Newton divided differences over distinct integer nodes.  The k-th
    divided difference of p = sum p_d x^d is sum p_d h_(d-k)(x_0, ..., x_k),
    h_j the complete homogeneous symmetric polynomial of degree j, so for
    an integer polynomial at integer nodes every difference is an integer
    and each division is exact.  An inexact division raises ValueError: no
    integer polynomial takes those values.
    """
    c = list(values)
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            q, r = divmod(c[i] - c[i - 1], xs[i] - xs[i - k])
            if r:
                raise ValueError("not an exact division")
            c[i] = q
    out = []
    for node, ck in zip(reversed(xs), reversed(c)):  # out <- out (x - node) + c_k
        out = [0] + out
        for i in range(len(out) - 1):
            out[i] -= node * out[i + 1]
        out[0] += ck
    return dstrip(out)


# -- exact integer quotients -------------------------------------------------------

# Measured with Python 3.11 on a 2-vCPU VM: one quotient of 32 kbit by 32 kbit
# takes about as long either way, the 2-adic one is 2-3x faster at 128-256 kbit,
# and the delta-6 outer PRS runs equally fast with cuts from 8 to 64 kbit.
QUOTIENT_2ADIC_BITS = 32768


def _inverse_2adic(b: int, nbits: int) -> int:
    """b^-1 modulo 2^nbits for odd b, by Newton (Hensel) lifting."""
    precisions = []
    while nbits > 64:
        precisions.append(nbits)
        nbits = (nbits + 1) // 2
    x = pow(b & ((1 << nbits) - 1), -1, 1 << nbits)
    for p in reversed(precisions):
        # x is exact modulo 2^k; b x = 1 + 2^k e, and x (1 - 2^k e) is exact modulo 2^p
        k = nbits
        e = (((b & ((1 << p) - 1)) * x) >> k) & ((1 << (p - k)) - 1)
        x = (x - ((x * e) << k)) & ((1 << p) - 1)
        nbits = p
    return x


def dquo_exact(a, d: int):
    """[c / d for c in a] for an integer d dividing every entry; ValueError otherwise.

    CPython divides big integers in quadratic time, so once the widest
    quotient and the divisor both reach QUOTIENT_2ADIC_BITS the quotients are
    taken 2-adically instead (Jebelean): with v the 2-adic valuation of d,
    c / d = (c / 2^v) (d / 2^v)^-1 modulo 2^n, read as a balanced residue,
    for any n with |c / d| < 2^(n-1).  One inverse serves every entry, and
    each quotient q is returned only after q d == c has been checked.
    """
    dbits = d.bit_length()
    nq = max(c.bit_length() for c in a) - dbits + 2  # |c / d| < 2^(nq - 1)
    if min(nq, dbits) < QUOTIENT_2ADIC_BITS:
        out = []
        for c in a:
            q, r = divmod(c, d)
            if r:
                raise ValueError("not an exact division")
            out.append(q)
        return out
    v = (d & -d).bit_length() - 1
    inv = _inverse_2adic(d >> v, nq)
    out = []
    for c in a:
        n = max(c.bit_length() - dbits + 2, 1)
        mask = (1 << n) - 1
        q = (((c >> v) & mask) * (inv & mask)) & mask
        if q >> (n - 1):
            q -= 1 << n
        if q * d != c:
            raise ValueError("not an exact division")
        out.append(q)
    return out


# -- gcds modulo primes -------------------------------------------------------------
#
# If p does not divide lc(a), reduction mod p maps every common factor g of a
# and b over Z onto a common factor of a mod p and b mod p of the same degree
# (lc(g) divides lc(a), so p does not divide it).  Hence the gcd in F_p[x] has
# degree at least deg gcd(a, b), with equality for all but finitely many p.
#
# * Unit images.  A unit gcd modulo p proves gcd(a, b) = 1, and a is its own
#   cofactor.  With b = a', a repeated factor h^2 of a would put h mod p into
#   the gcd, so this certifies a squarefree over Q at the first prime.
# * Modular gcd (Brown 1971; Collins).  The images of least degree, each
#   scaled to leading coefficient gcd(lc a, lc b), are combined by the Chinese
#   remainder theorem into symmetric residues; an image of higher degree comes
#   from an unlucky prime and is dropped, one of lower degree restarts the
#   combination.  After each prime the primitive candidate G is tried: G is
#   returned only when it divides both a and b exactly over Z.  Then G divides
#   gcd(a, b), and deg G = deg gcd_p >= deg gcd(a, b) (its leading residue is
#   gcd(lc a, lc b), a unit mod each p used), so G is the gcd.  No bound on
#   coefficients is used: a wrong candidate is simply not accepted, and once
#   the primes are lucky and their product exceeds twice the scaled gcd's
#   coefficients the candidate is right, so the loop ends (the primes below
#   2^30 multiply to about 2^(1.5 * 10^9)).
# * More operands.  Everything above holds with b standing for all operands
#   but a: the image is the gcd in F_p[x] of all their images, gamma the gcd
#   of all leading coefficients, and G must divide every operand.

CERTIFICATE_PRIMES = (2 ** 30 - 35, 2 ** 30 - 41, 2 ** 30 - 83, 2 ** 30 - 101, 2 ** 30 - 105)

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37, deterministic for n < 3.18 * 10^23."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for q in _MILLER_RABIN_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """The primes below 2^30 in descending order: CERTIFICATE_PRIMES, then the rest."""
    yield from CERTIFICATE_PRIMES
    n = CERTIFICATE_PRIMES[-1] - 2
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _gcd_mod_p(a, b, p: int):
    """A gcd in F_p[x] of two lists of residues mod p, ascending ([] for two zeros).

    Euclid's algorithm; both lists are consumed.  Within one division the
    dividend's coefficients are left unreduced and reduced once at its end.
    """
    dstrip(a)
    dstrip(b)
    while b:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        while len(a) > db:
            q = a.pop() * inv % p
            shift = len(a) - db
            a[shift:] = [x - q * y for x, y in zip(a[shift:], b)]  # b's top term is spent
        a, b = b, dstrip([c % p for c in a])
    return a


def _quotient(a, g):
    """a / g over Z by exact division, or None when g does not divide a.

    The leading and lowest coefficients are tested first: a candidate that
    fails there is rejected without a division.
    """
    k = next(i for i, c in enumerate(g) if c)
    if a[-1] % g[-1] or any(a[:k]) or a[k] % g[k]:
        return None
    try:
        return ddiv_exact(a, g)
    except ValueError:
        return None


def dgcd(*operands):
    """Primitive gcd of integer polynomials, positive leading coefficient.

    The modular gcd described above, taken in the operands' common exponent
    lattice: with every exponent a multiple of g, gcd(a(x^g), b(x^g)) =
    gcd(a, b)(x^g), because a Bezout identity survives x -> x^g, and the
    compressed gcd is about g^2 times cheaper.  The result has been proved
    by exact division.  Zero operands are skipped (the gcd of zeros alone is
    []), and a nonzero constant operand gives [1].
    """
    lattice = reduce(lambda g, a: dexponent_gcd(a, g), operands, 0)
    nonzero = [a for a in (dstrip(dprimitive(dcompress(a, lattice))) for a in operands) if a]
    if len(nonzero) > 1:
        g = _gcd_cofactor(*nonzero)[0]
    else:
        g = nonzero[0] if nonzero else []
    return dexpand(dneg(g) if g and g[-1] < 0 else g, lattice)


def _gcd_cofactor(a, *others):
    """(G, a / G) for G = dgcd(a, *others), a primitive and the others nonzero, all stripped.

    Each prime's image is the gcd in F_p[x] of every operand's image, and
    the candidate must divide every operand.  The cofactor is the quotient
    the acceptance check has already formed.
    """
    if len(a) == 1 or any(len(b) == 1 for b in others):
        return [1], a
    gamma = gcd(a[-1], *(b[-1] for b in others))
    m, h = 1, None  # the modulus and the symmetric residues of the kept images
    for p in _primes():
        check_deadline("gcd computation")
        if a[-1] % p == 0:
            continue
        image = [c % p for c in a]
        for b in others:
            image = _gcd_mod_p(image, [c % p for c in b], p)
        if len(image) == 1:
            return [1], a
        if h is not None and len(image) > len(h):
            continue
        scale = gamma * pow(image[-1], -1, p) % p
        image = [c * scale % p for c in image]
        if h is None or len(image) < len(h):
            m, h = p, [c - p if 2 * c > p else c for c in image]
        else:
            inv = pow(m % p, -1, p)
            h = [x + m * ((y - x % p) * inv % p) for x, y in zip(h, image)]
            m *= p
            h = [x - m if 2 * x > m else x for x in h]
        g = dprimitive(h)
        if g[-1] < 0:
            g = dneg(g)
        q = _quotient(a, g)
        if q is not None and all(_quotient(b, g) is not None for b in others):
            return g, q


# -- the univariate polynomial wrapper ------------------------------------------


class UnivariatePolynomial:
    """Dense integer coefficients, ascending; the zero polynomial is allowed.

    Rational input is multiplied by the lcm of its denominators.  That factor
    is positive, so signs, roots, counts and isolating intervals are those of
    the input.
    """

    __slots__ = ("coeffs", "_sf", "_roots", "_descartes", "_refined")

    def __init__(self, coeffs):
        cs = list(coeffs)
        if any(type(c) is not int for c in cs):
            cs = [Fraction(c) for c in cs]
            den = lcm(*(c.denominator for c in cs))
            cs = [c.numerator * (den // c.denominator) for c in cs]
        self.coeffs = dstrip(cs)
        self._sf = None  # the squarefree part, once computed
        self._roots = None  # the isolating intervals, once computed
        self._descartes = None  # on a squarefree part: its Descartes data, once computed
        self._refined = {}  # (interval, width): its refinement, once computed

    @classmethod
    def from_int_list(cls, ints):
        return cls(ints)

    @classmethod
    def from_squarefree(cls, ints):
        """A primitive squarefree list, positive leading coefficient: its own squarefree part."""
        p = cls(ints)
        p._sf = p
        return p

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(x) + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __neg__(self):
        return UnivariatePolynomial(dneg(self.coeffs))

    def __mul__(self, other):
        return UnivariatePolynomial(dmul(self.coeffs, getattr(other, "coeffs", [other])))

    def int_primitive(self):
        """Primitive integer coefficient list with positive leading coefficient."""
        ints = dprimitive(self.coeffs)
        return dneg(ints) if ints and ints[-1] < 0 else ints

    def __repr__(self):
        if not self.coeffs:
            return "UnivariatePolynomial(0)"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return "UnivariatePolynomial(" + " + ".join(terms) + ")"

    def squarefree_part(self) -> "UnivariatePolynomial":
        """Primitive squarefree part, positive leading coefficient; kept once computed.

        It is taken in p's own lattice: for p = x^m q(x^g) with q(0) != 0 it
        is x^min(m, 1) s(x^g), s the squarefree part of q (the x^g - z over
        the distinct roots z != 0 of q are squarefree and pairwise coprime).
        s is the cofactor of gcd(q, q'); a unit image of that gcd modulo a
        prime certifies q squarefree, and the primitive q is its own
        squarefree part.
        """
        if self._sf is None:
            ints = self.int_primitive()
            m = next((i for i, c in enumerate(ints) if c), 0)
            lattice = dexponent_gcd(ints[m:])
            q = dcompress(ints[m:], lattice)
            if len(q) > 1:
                q = _gcd_cofactor(q, dderiv(q))[1]
            self._sf = UnivariatePolynomial.from_squarefree([0] * min(m, 1) + dexpand(q, lattice))
        return self._sf

    def is_squarefree(self) -> bool:
        """Whether the polynomial has no repeated factor."""
        return self.squarefree_part().degree() == self.degree()


def _drop_root(ints, x: Fraction):
    """ints / (d t - n) for a rational root x = n / d of ints (d > 0): exact over Z.

    The divisor is positive for t > x, so the quotient keeps the sign of
    ints / (t - x) everywhere; when ints is primitive with a positive leading
    coefficient, so is the quotient (Gauss).
    """
    return ddiv_exact(ints, [-x.numerator, x.denominator])


def _drop_roots_at(ints, points):
    """ints with each of the points that is a root of it divided out, in order."""
    for x in points:
        while len(ints) > 1 and _sign_at(ints, x) == 0:
            ints = _drop_root(ints, x)
    return ints


def _sign_at(ints, x: Fraction) -> int:
    """Sign of the polynomial at x = n/d, from the integer d^deg p(n/d) (d > 0)."""
    n, d = x.numerator, x.denominator
    v, dk = 0, 1
    for c in reversed(ints):
        v = v * n + c * dk
        dk *= d
    return (v > 0) - (v < 0)


# -- real roots: Descartes subdivision ----------------------------------------------
#
# Collins-Akritas bisection in Bernstein form (Rouillier and Zimmermann 2004;
# Mourrain, Rouillier and Roy 2005).  For q = sum_j b_j C(n, j) x^j (1 - x)^(n - j)
# of degree n, (x + 1)^n q(1 / (x + 1)) = sum_j b_j C(n, j) x^(n - j), so the
# sign variations of b bound the number of roots of q in (0, 1) and equal it
# when that bound is 0 or 1 (the one- and two-circle theorems).  Otherwise
# (0, 1) is split at 1/2 by de Casteljau's algorithm, which gives the
# coefficients of both halves from integer additions and shifts alone.


def _variations(coeffs) -> int:
    """Sign changes in coeffs, zeros skipped."""
    signs = [c > 0 for c in coeffs if c]
    return sum(map(ne, signs, signs[1:]))


def _taylor1(a):
    """a(x + 1) by synthetic addition, O(n^2) additions."""
    d = a[::-1]
    for m in range(len(d), 1, -1):
        d[:m] = accumulate(d[:m])
    return d[::-1]


def _bernstein(q):
    """Integer Bernstein coefficients of q on (0, 1), times L = lcm_j C(n, j)."""
    n = len(q) - 1
    scale = lcm(*(comb(n, j) for j in range(n + 1)))
    return [c * (scale // comb(n, j)) for j, c in enumerate(reversed(_taylor1(q[::-1])))]


def _split(b):
    """Bernstein coefficients of both halves of (0, 1), each times a positive integer.

    b is first stripped of the power of two common to its entries.  Then one
    de Casteljau pass of pairwise sums: after k sums the ends are 2^k times
    coefficient k of the left half and n - k of the right, so both are
    shifted by n - k bits to a common 2^n.
    """
    b = _odd(b)
    n = len(b) - 1
    left, right = [b[0] << n], [b[n] << n]
    for shift in range(n - 1, -1, -1):
        b = list(map(add, b, b[1:]))
        left.append(b[0] << shift)
        right.append(b[-1] << shift)
    return left, right[::-1]


def _odd(b):
    """b with the power of two common to its entries removed."""
    bits = reduce(or_, b)
    v = (bits & -bits).bit_length() - 1
    return [c >> v for c in b] if v else b


def _deflated(left, right):
    """Both halves with the root at 1/2 divided out, in Bernstein form of degree n - 1.

    left(1) = right(0) = 0.  With M = lcm(1, ..., n): C(n, j) x^j (1 - x)^(n - j)
    = n / (n - j) (1 - x) C(n - 1, j) x^j (1 - x)^(n - 1 - j), so left / (1 - x)
    has coefficients left_j n / (n - j); likewise right / x has right_(j + 1) n / (j + 1).
    Both are scaled by M / n.
    """
    n = len(left) - 1
    top = lcm(*range(1, n + 1))
    return ([c * (top // (n - j)) for j, c in enumerate(left[:-1])],
            [c * (top // (j + 1)) for j, c in enumerate(right[1:])])


def _root_bits(a) -> int:
    """k with every complex root of a strictly below 2^k in absolute value.

    Fujiwara: |z| <= 2 max_i |a_(n-i) / a_n|^(1/i); each term is below
    2^ceil((bits(a_(n-i)) - bits(a_n) + 1) / i).
    """
    n = len(a) - 1
    top = abs(a[-1]).bit_length() - 1
    return 1 + max(-((top - abs(a[n - i]).bit_length()) // i)
                   for i in range(1, n + 1) if a[n - i])


def _separation_bits(q) -> int:
    """L with 2^-L below Mahler's bound on the root separation of a squarefree q.

    Mahler: sep(q) > 3^(1/2) n^(-(n+2)/2) |q|_2^(1-n), and n < 2^n.bit_length()
    and |q|_2^2 <= (n + 1) max |c|^2 < 2^norm_bits bound it from below by
    integer bit lengths.
    """
    n = len(q) - 1
    norm_bits = 2 * max(map(int.bit_length, q)) + (n + 1).bit_length()
    return (n.bit_length() * (n + 2) + norm_bits * (n - 1) + 1) // 2


def _unit_roots(q, k: int):
    """Isolating data of the roots in (0, 1), scaled by 2^k, of a squarefree q.

    q(0), q(1) are nonzero.  A node (b, j, e, v) is (j / 2^e, (j + 1) / 2^e)
    with Bernstein coefficients b and v their sign variations.  A node with
    v >= 2 has two roots of q within 3^(1/2) times its width of each other
    (the one- and two-circle theorems), so one narrower than half of q's
    root separation that counts 2 raises DomainError instead of splitting on.
    """
    def at(j, e):
        return Fraction(j << k, 1 << e)

    depth = _separation_bits(q) + 1
    out = []
    b = _bernstein(q)
    stack = [(b, 0, 0, _variations(b))]
    while stack:
        check_deadline("root isolation")
        b, j, e, v = stack.pop()
        if v == 1:
            out.append((at(j, e), at(j + 1, e)))
        if v < 2:
            continue
        if e >= depth:
            raise DomainError(f"isolation broken: {v} variations on ({at(j, e)}, {at(j + 1, e)})")
        left, right = _split(b)
        if left[-1] == 0:  # left(1) = right(0): a root at the midpoint
            out.append((at(2 * j + 1, e + 1),) * 2)
            left, right = _deflated(left, right)
        stack.append((left, 2 * j, e + 1, _variations(left)))
        stack.append((right, 2 * j + 1, e + 1, _variations(right)))
    return out


def _real_roots(q):
    """Sorted isolating data of the real roots of a squarefree integer polynomial.

    Each root comes as (lo, hi), the only root in the open interval lo < x < hi,
    or as (r, r) for a root r met exactly.
    """
    out = []
    if q[0] == 0:
        out.append((Fraction(0),) * 2)
        q = q[1:]
    for side in (1, -1):
        check_deadline("root isolation")
        half = q if side == 1 else [-c if i % 2 else c for i, c in enumerate(q)]
        v = _variations(half)
        if v == 0:
            continue
        k = max(_root_bits(half), 0)  # every root lies in (0, 2^k)
        if v == 1:
            found = [(Fraction(0), Fraction(1 << k))]
        else:
            found = _unit_roots([c << (k * i) for i, c in enumerate(half)], k)
        out.extend((lo, hi) if side == 1 else (-hi, -lo) for lo, hi in found)
    return sorted(out)


def _rank(q, dq, roots, x: Fraction) -> int:
    """How many roots of q lie at or below x; roots is q's `_real_roots` data.

    Inside an interval (lo, hi), the root lies at or below x exactly when the
    sign of q at x is not the sign of q just right of lo: that of q(lo), or of
    q'(lo) = dq(lo) when lo is a root met at a midpoint (simple: q is squarefree).
    """
    n = 0
    for lo, hi in roots:
        if hi <= x:
            n += 1
        elif lo < x:
            return n + (_sign_at(q, x) != (_sign_at(q, lo) or _sign_at(dq, lo)))
        else:
            break
    return n


def _descartes(p: UnivariatePolynomial):
    """(q, q', `_real_roots` of q) for q p's squarefree part, which keeps them once computed.

    Checks the deadline on each call, even when the data is kept.
    """
    check_deadline("root isolation")
    sf = p.squarefree_part()
    if sf._descartes is None:
        q = sf.coeffs
        sf._descartes = (q, dderiv(q), _real_roots(q))
    return sf._descartes


def count_real_roots(p: UnivariatePolynomial) -> int:
    """Number of distinct real roots."""
    if p.is_zero():
        raise DomainError("identically zero polynomial")
    return len(_descartes(p)[2])


def sturm_count(p: UnivariatePolynomial, interval) -> int:
    """Number of distinct real roots in (a, b]; a may be None (-inf), b None (+inf).

    The name is historical: the count is read from the Descartes isolation of
    the squarefree part (`_rank`).
    """
    if p.is_zero():
        raise DomainError("identically zero polynomial")
    a, b = interval
    if a is not None and b is not None and Fraction(a) >= Fraction(b):
        raise DomainError("need a < b")
    q, dq, roots = _descartes(p)
    below_a = 0 if a is None else _rank(q, dq, roots, Fraction(a))
    below_b = len(roots) if b is None else _rank(q, dq, roots, Fraction(b))
    return below_b - below_a


# -- isolation --------------------------------------------------------------------


@dataclass(frozen=True)
class IsolatingInterval:
    """lo < hi bracketing exactly one root, or lo == hi for an exact rational root."""

    lo: Fraction
    hi: Fraction
    multiplicity_free: bool = True

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi), "exact": self.is_point}


def root_bound(p: UnivariatePolynomial) -> Fraction:
    """Cauchy-style bound: every real root has absolute value below the result."""
    return 1 + Fraction(max(map(abs, p.coeffs[:-1]), default=0), abs(p.coeffs[-1]))


def isolate_real_roots(p: UnivariatePolynomial):
    """Disjoint isolating intervals, one per distinct real root, sorted; p keeps them."""
    if p.is_zero():
        raise DomainError("identically zero polynomial")
    if p._roots is None:
        p._roots = tuple(_isolate(p))
    return list(p._roots)


def _isolate(p: UnivariatePolynomial):
    sf = p.squarefree_part()
    was_squarefree = sf.degree() == p.degree()
    q = sf.coeffs  # deflated by each exact root found
    found_points = []

    def rank(x):  # of q: sf's rank less the found points, the roots divided out of sf
        return _rank(*_descartes(sf), x) - sum(1 for r in found_points if r <= x)

    # peel off the easy exact root at 0 so we can always split there
    while q[0] == 0:
        found_points.append(Fraction(0))
        q = _drop_root(q, Fraction(0))

    intervals = []
    while len(q) > 1:
        bound = root_bound(UnivariatePolynomial(q))  # strict, so q(bound) != 0
        tiny = Fraction(1, 1 << _separation_bits(q))  # below q's root separation
        breaks = sorted(set([-bound, Fraction(0), bound] + found_points))
        breaks = [x for x in breaks if -bound <= x <= bound]
        # each entry carries the ranks of both ends: one new rank per split
        rank_at = [rank(x) for x in breaks]
        stack = [(breaks[i], breaks[i + 1], rank_at[i], rank_at[i + 1])
                 for i in range(len(breaks) - 1)]
        intervals = []
        while stack:
            check_deadline("root isolation")
            lo, hi, rlo, rhi = stack.pop()
            cnt = rhi - rlo
            if cnt <= 0:
                continue
            if cnt == 1:
                intervals.append((lo, hi))
                continue
            if hi - lo <= tiny:  # two roots of q closer than their separation
                raise DomainError(f"isolation broken: {cnt} roots counted in ({lo}, {hi}]")
            mid = (lo + hi) / 2
            if _sign_at(q, mid) == 0:  # start again, with mid among the breaks
                found_points.append(mid)
                q = _drop_root(q, mid)
                break
            rm = rank(mid)
            stack.append((lo, mid, rlo, rm))
            stack.append((mid, hi, rm, rhi))
        else:
            break

    # the bracketed root is strictly interior, so bisecting until no other
    # root of sf sits on an endpoint terminates, and the closed interval then
    # contains exactly one root of sf
    def clear(lo, hi):
        return _sign_at(sf.coeffs, lo) != 0 and _sign_at(sf.coeffs, hi) != 0

    out = [IsolatingInterval(r, r, was_squarefree) for r in found_points]
    out.extend(IsolatingInterval(*_bisect(sf.coeffs, lo, hi, clear, "root isolation"),
                                 was_squarefree)
               for lo, hi in intervals)
    out.sort(key=lambda iv: (iv.lo, iv.hi))
    return out


def _bisect(sf, lo, hi, done, what):
    """(lo, hi) halved until done(lo, hi), or (r, r) once a midpoint r is the root.

    (lo, hi) brackets one root of sf strictly inside.  Other roots of sf on
    an endpoint are divided out first, so the sign at each midpoint picks the
    half holding the root.  Each step checks the deadline, naming what.
    """
    q = _drop_roots_at(sf, (lo, hi))
    slo = _sign_at(q, lo)
    if slo == 0:
        raise DomainError("interval endpoint is a root; isolation broken")
    while not done(lo, hi):
        check_deadline(what)
        mid = (lo + hi) / 2
        v = _sign_at(q, mid)
        if v == 0:
            return mid, mid
        if v == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def refine_interval(p: UnivariatePolynomial, interval: IsolatingInterval,
                    width: Fraction) -> IsolatingInterval:
    """Shrink an isolating interval below the requested width by bisection; p keeps it."""
    if interval.is_point:
        return interval
    key = (interval, Fraction(width))
    if key not in p._refined:
        lo, hi = _bisect(p.squarefree_part().coeffs, interval.lo, interval.hi,
                         lambda lo, hi: hi - lo <= width, "interval refinement")
        p._refined[key] = IsolatingInterval(lo, hi, interval.multiplicity_free)
    return p._refined[key]


def min_positive_real_root(p: UnivariatePolynomial, width=Fraction(1, 10000)):
    """Isolating interval of the least real root > 0, refined; None if there is none.

    The roots at or below 0 are the first sturm_count(p, (None, 0)) intervals.
    """
    roots = isolate_real_roots(p)[sturm_count(p, (None, 0)):]
    if not roots:
        return None
    return refine_interval(p, roots[0], width)
