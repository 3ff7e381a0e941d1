"""Output checks, computed apart from the program under test.

Each check returns a list of problems; an empty list accepts the output.
Counts are checked against properties the method must have (parity,
Kushnirenko totals, the figure values of the paper).  Eliminations are
checked with the benchmark's own arithmetic modulo primes: a squarefree
test by gcd with the derivative, Sylvester determinants at random points,
and sign changes of E at the reported intervals, evaluated with Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

P61 = (1 << 61) - 1  # a Mersenne prime


# -- counts -------------------------------------------------------------------------


def hexagon_problems(results, n):
    """One problem per rejected Monte-Carlo record; a wrong length rejects all."""
    if len(results) != n or [r["index"] for r in results] != list(range(n)):
        return [f"expected records 0..{n - 1}, got {len(results)}"] * n
    out = []
    for r in results:
        count, total = r["count"], r["total"]
        if not 0 <= count <= total or (total - count) % 2:
            out.append(f"record {r['index']}: count {count} against total {total}")
        elif count not in (2, 6):
            out.append(f"record {r['index']}: count {count} outside {{2, 6}}")
    return out


def pair_problem(count, total, delta, expected=None):
    """Problem with one counted pair, or None; expected is a figure's known count."""
    if total != delta * delta:
        return f"total {total} is not delta^2 = {delta * delta}"
    if not 0 <= count <= total or (total - count) % 2:
        return f"count {count} has the wrong range or parity for total {total}"
    if expected is not None and count != expected:
        return f"count {count}, the figure shows {expected}"
    return None


# -- arithmetic modulo p --------------------------------------------------------------


def _mod(c, p):
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, p) % p


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gcd_mod(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, cb in enumerate(b):
                a[shift + i] = (a[shift + i] - q * cb) % p
            _trim(a)
        a, b = b, a
    return a


def _horner(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _det_mod(rows, p):
    m = [list(r) for r in rows]
    n = len(m)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, n):
            f = m[r][col] * inv % p
            if f:
                for k in range(col, n):
                    m[r][k] = (m[r][k] - f * m[col][k]) % p
    return det % p


def sylvester_det_mod(a, b, p):
    """Sylvester determinant of two ascending coefficient lists of formal length."""
    da, db = len(a) - 1, len(b) - 1
    n = da + db
    rows = []
    for k in range(db):
        rows.append([0] * k + a[::-1] + [0] * (n - k - da - 1))
    for k in range(da):
        rows.append([0] * k + b[::-1] + [0] * (n - k - db - 1))
    return _det_mod(rows, p)


def _coeffs_in(poly, var, point, p):
    """Dense ascending coefficients in var, the other variables set to point mod p.

    The list has the formal length deg_var(poly) + 1 over the other variables,
    so Sylvester determinants built from it specialise the generic resultant.
    """
    i = poly.vars.index(var)
    deg = max(e[i] for e in poly.terms)
    out = [0] * (deg + 1)
    for e, c in poly.terms.items():
        v = _mod(c, p)
        for pos, k in enumerate(e):
            if pos != i and k:
                v = v * pow(point[poly.vars[pos]], k, p) % p
        out[e[i]] = (out[e[i]] + v) % p
    return out


def _value(poly, point, p):
    total = 0
    for e, c in poly.terms.items():
        v = _mod(c, p)
        for var, k in zip(poly.vars, e):
            if k:
                v = v * pow(point[var], k, p) % p
        total += v
    return total % p


def _has(poly, var):
    return var in poly.vars and any(e[poly.vars.index(var)] for e in poly.terms)


def _small_primes(lo, hi):
    return [n for n in range(lo | 1, hi, 2)
            if all(n % d for d in range(3, int(n ** 0.5) + 1, 2))]


# -- eliminations ------------------------------------------------------------------------


def _sign(x):
    return (x > 0) - (x < 0)


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eliminant_problems(result, intervals, system, rng):
    """Check an EliminationResult of `system` and the intervals isolated from it.

    rng (random.Random) picks the primes and evaluation points.
    """
    E = list(result.E.coeffs)
    if len(E) < 2 or not all(isinstance(c, int) for c in E):
        return [f"E is not a nonconstant integer polynomial: {E[:4]}"]
    problems = []
    g = gcd(*E)
    if g != 1 or E[-1] <= 0:
        problems.append(f"E has content {g} and leading coefficient {E[-1]}")
    deriv = [k * c for k, c in enumerate(E)][1:]
    primes = _small_primes(1000, 4000)
    rng.shuffle(primes)
    if not any(E[-1] % p and len(_gcd_mod([c % p for c in E], [c % p for c in deriv], p)) == 1
               for p in primes[:20]):
        problems.append("E is not squarefree modulo any of 20 primes")

    sources = [E] + [list(c.coeffs) for c in result.content_factors]
    for iv in intervals:
        if iv.lo == iv.hi:
            ok = any(_eval(s, iv.lo) == 0 for s in sources)
        else:
            ok = any(_sign(_eval(s, iv.lo)) * _sign(_eval(s, iv.hi)) < 0 for s in sources)
        if not ok:
            problems.append(f"no factor of E changes sign on [{iv.lo}, {iv.hi}]")

    if tuple(result.shear_used) != (0, 0):
        return problems + [f"the check covers unsheared routes, got {result.shear_used}"]
    f0 = system.f[result.pivot]
    others = [system.f[k] for k in range(3) if k != result.pivot]
    for pr, g1 in zip(result.projections, others):
        ratios = set()
        for _ in range(6):
            point = {"t": rng.randrange(1, P61), "y": rng.randrange(P61)}
            lhs = sylvester_det_mod(_coeffs_in(f0, "x", point, P61),
                                    _coeffs_in(g1, "x", point, P61), P61)
            content = _horner([_mod(c, P61) for c in pr.content.coeffs], point["t"], P61)
            rhs = pow(point["t"], pr.t_power, P61) * content * _value(pr.poly, point, P61) % P61
            if rhs:
                ratios.add(lhs * pow(rhs, -1, P61) % P61)
        if len(ratios) != 1 or 0 in ratios:
            problems.append("x-resultant differs from t^k * content * P "
                            f"by more than one scalar: {sorted(ratios)[:3]}")

    with_y = [pr.poly for pr in result.projections if _has(pr.poly, "y")]
    without_y = [pr.poly for pr in result.projections if not _has(pr.poly, "y")]
    roots_checked = 0
    for p in primes[:40]:
        Ep = [c % p for c in E]
        for r in range(p):
            if _horner(Ep, r, p):
                continue
            roots_checked += 1
            point = {"t": r}
            if len(with_y) == 2:
                zero = sylvester_det_mod(_coeffs_in(with_y[0], "y", point, p),
                                         _coeffs_in(with_y[1], "y", point, p), p) == 0
            else:
                zero = all(_value(poly, point, p) == 0 for poly in without_y)
            if not zero:
                problems.append(f"E(t) = 0 mod {p} at t = {r}, the y-resultant is not")
        if roots_checked >= 4:
            break
    if roots_checked == 0:
        problems.append("E has no roots modulo 40 primes")
    return problems
