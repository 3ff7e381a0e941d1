"""Sparse multivariate polynomials with exact rational coefficients.

Terms are kept in a dict mapping exponent tuples to nonzero coefficients.
Coefficients are Python ints wherever possible and Fraction otherwise, so
integer-only pipelines (which is most of the elimination work) never pay the
Fraction normalization tax.  Instances are immutable by convention: no method
mutates self.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError


def norm_coeff(c):
    """Normalize to int when exact, Fraction otherwise."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and int subclasses
        return int(c)
    if isinstance(c, str):
        return norm_coeff(Fraction(c))
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _grlex_key(exps):
    return (sum(exps), exps)


class Polynomial:
    """A polynomial in named variables over the rationals."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = norm_coeff(c)
                if c != 0:
                    e = tuple(exps)
                    if len(e) != len(self.vars):
                        raise ValueError("exponent tuple does not match variables")
                    if any(k < 0 for k in e):
                        raise ValueError("negative exponents are not supported")
                    clean[e] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables=()):
        return cls(variables, {})

    @classmethod
    def const(cls, c, variables=()):
        v = tuple(variables)
        return cls(v, {(0,) * len(v): c})

    @classmethod
    def variable(cls, name, variables=None):
        v = tuple(variables) if variables is not None else (name,)
        if name not in v:
            raise ValueError(f"{name!r} not among {v}")
        e = tuple(1 if x == name else 0 for x in v)
        return cls(v, {e: 1})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def support(self):
        """Sorted list of exponent tuples with nonzero coefficient."""
        return sorted(self.terms)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.vars == other.vars:
            return self.terms == other.terms
        a, b = _aligned(self, other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self):
        return Polynomial(self.vars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        a, b = _aligned(self, other)
        res = dict(a.terms)
        for e, c in b.terms.items():
            s = res.get(e, 0) + c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        return Polynomial(a.vars, res)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other, self.vars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = norm_coeff(other)
            if c0 == 0:
                return Polynomial.zero(self.vars)
            return Polynomial(self.vars, {e: c * c0 for e, c in self.terms.items()})
        a, b = _aligned(self, other)
        res = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = res.get(e, 0) + c1 * c2
                if s == 0:
                    res.pop(e, None)
                else:
                    res[e] = s
        return Polynomial(a.vars, res)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Polynomial.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation --------------------------------------------

    def derivative(self, var: str) -> "Polynomial":
        if var not in self.vars:
            return Polynomial.zero(self.vars)
        i = self.vars.index(var)
        res = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            res[ne] = res.get(ne, 0) + c * e[i]
        return Polynomial(self.vars, res)

    def evaluate(self, bindings):
        """Evaluate at a rational point; every variable must be bound."""
        missing = [v for v in self.vars if v not in bindings]
        if missing:
            raise ValueError(f"missing bindings for {missing}")
        total = Fraction(0)
        vals = [norm_coeff(bindings[v]) for v in self.vars]
        for e, c in self.terms.items():
            term = c
            for val, k in zip(vals, e):
                if k:
                    term *= val ** k
            total += term
        return norm_coeff(Fraction(total))

    def substitute(self, mapping) -> "Polynomial":
        """Replace variables by polynomials or rationals, exactly.

        Variables absent from the mapping are kept.  The result lives in the
        union of the remaining variables and the variables of the images.
        """
        images = {}
        out_vars = []
        for v in self.vars:
            if v in mapping:
                img = mapping[v]
                if not isinstance(img, Polynomial):
                    img = Polynomial.const(img)
                images[v] = img
                for w in img.vars:
                    if w not in out_vars:
                        out_vars.append(w)
            else:
                if v not in out_vars:
                    out_vars.append(v)
        out_vars = tuple(out_vars)
        result = Polynomial.zero(out_vars)
        pow_cache = {v: {0: Polynomial.const(1, out_vars)} for v in images}
        for e, c in self.terms.items():
            term = Polynomial.const(c, out_vars)
            for v, k in zip(self.vars, e):
                if k == 0:
                    continue
                if v in images:
                    cache = pow_cache[v]
                    if k not in cache:
                        img = images[v].with_variables(out_vars)
                        p = max(cache)
                        acc = cache[p]
                        while p < k:
                            acc = acc * img
                            p += 1
                            cache[p] = acc
                    term = term * cache[k]
                else:
                    i = out_vars.index(v)
                    term = Polynomial(
                        out_vars,
                        {te[:i] + (te[i] + k,) + te[i + 1:]: tc for te, tc in term.terms.items()},
                    )
            result = result + term
        return result

    # -- content ---------------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c primitive integral; 0 for the zero poly.

        Coefficients are ints or Fractions, and both carry their numerator
        and denominator.
        """
        cs = self.terms.values()
        return Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs)))

    def primitive_part(self) -> "Polynomial":
        c = self.content()
        if c in (0, 1):
            return self
        inv = 1 / c
        return Polynomial(self.vars, {e: v * inv for e, v in self.terms.items()})

    # -- views ----------------------------------------------------------------

    def with_variables(self, variables) -> "Polynomial":
        """Re-express in a superset of the current variables."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        idx = []
        for v in self.vars:
            if v not in variables:
                raise ValueError(f"cannot drop variable {v!r}")
            idx.append(variables.index(v))
        n = len(variables)
        res = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for pos, k in zip(idx, e):
                ne[pos] = k
            res[tuple(ne)] = c
        return Polynomial(variables, res)

    def drop_unused(self) -> "Polynomial":
        """Forget variables that never occur."""
        used = [i for i, v in enumerate(self.vars) if any(e[i] for e in self.terms)]
        keep = tuple(self.vars[i] for i in used)
        return Polynomial(keep, {tuple(e[i] for i in used): c for e, c in self.terms.items()})

    def as_univariate(self, var: str):
        """Dense coefficient list in `var` (ascending), entries in the other vars."""
        if var not in self.vars:
            return [self]
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        d = self.degree(var)
        buckets = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            buckets[e[i]][e[:i] + e[i + 1:]] = c
        return [Polynomial(rest, b) for b in buckets]

    def dense(self, var) -> list:
        """Ascending coefficient list in var of a polynomial with no other live variable.

        A polynomial free of var gives [constant] ([] for zero); any other
        live variable raises DomainError.
        """
        i = self.vars.index(var) if var in self.vars else None
        out = [0] * (max(self.degree(var), 0) + 1) if self.terms else []
        for e, c in self.terms.items():
            k = e[i] if i is not None else 0
            if sum(e) != k:
                raise DomainError(f"polynomial is not univariate in {var!r}")
            out[k] = c
        return out

    # -- io ---------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k > 0
            )
            if not mono:
                parts.append(("+ " if c > 0 else "- ") + str(abs(c)))
            elif abs(c) == 1:
                parts.append(("+ " if c > 0 else "- ") + mono)
            else:
                parts.append(("+ " if c > 0 else "- ") + str(abs(c)) + "*" + mono)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    def __repr__(self):
        return f"Polynomial({self.vars!r}, {str(self)})"

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [[list(e), str(self.terms[e])] for e in sorted(self.terms)],
        }

    @classmethod
    def from_json(cls, obj) -> "Polynomial":
        return cls(tuple(obj["vars"]), {tuple(e): Fraction(c) for e, c in obj["terms"]})


def _aligned(a: Polynomial, b: Polynomial):
    if a.vars == b.vars:
        return a, b
    merged = list(a.vars)
    for v in b.vars:
        if v not in merged:
            merged.append(v)
    merged = tuple(merged)
    return a.with_variables(merged), b.with_variables(merged)
