"""Height functions for the honeycomb triangulation and cone membership tests.

A height function on the points of the dilated standard triangle induces a
regular subdivision by projecting the lower hull of the lifted points.  The
honeycomb triangulation is induced exactly when, across every interior edge,
the two lifted cell apexes lie strictly above the plane of the lifted edge.
For the honeycomb complex these folding conditions come in three families of
four-point inequalities, one per interior edge direction (diagonal, vertical,
horizontal); they are generated here directly and are also re-derivable for
any triangulation through fold_inequalities().
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .lattice import Triangulation2D, edge_incidence, honeycomb_triangulation, lattice_points


def tau_apply(p):
    """Apply ((1, -1), (0, 1)), which maps conv{0, e1, e1+e2} onto the standard triangle."""
    return (p[0] - p[1], p[1])


def tau_inverse(p):
    return (p[0] + p[1], p[1])


def rho(p) -> int:
    """The quadratic height i^2 + j^2 + ij."""
    i, j = p
    return i * i + j * j + i * j


def alcoved_lift(z) -> int:
    """Quadratic height z1^2 + z2^2 + (z1 - z2)^2 valid for all alcoves of the plane."""
    z1, z2 = z
    return z1 * z1 + z2 * z2 + (z1 - z2) ** 2


@dataclass(frozen=True)
class HeightFunction:
    """Nonnegative rational heights on the lattice points of delta * Delta_2."""

    delta: int
    values: dict

    def __post_init__(self):
        pts = set(lattice_points(self.delta))
        vals = {tuple(p): v for p, v in self.values.items()}
        if set(vals) != pts:
            raise DomainError("heights must be defined on exactly the lattice points")
        for p, v in vals.items():
            if v < 0:
                raise DomainError(f"negative height at {p}")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, p):
        return self.values[tuple(p)]

    @classmethod
    def from_callable(cls, delta: int, fn) -> "HeightFunction":
        return cls(delta, {p: fn(p) for p in lattice_points(delta)})

    @classmethod
    def rho(cls, delta: int) -> "HeightFunction":
        return cls.from_callable(delta, rho)

    @classmethod
    def zero(cls, delta: int) -> "HeightFunction":
        return cls.from_callable(delta, lambda p: 0)

    def to_json(self) -> dict:
        return {f"{i},{j}": str(self.values[(i, j)]) for (i, j) in sorted(self.values)}


def load_heights(path, delta: int) -> HeightFunction:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    vals = {}
    for key, v in raw.items():
        i, j = key.split(",")
        vals[(int(i), int(j))] = Fraction(str(v))
    return HeightFunction(delta, vals)


# -- the secondary cone of the honeycomb triangulation ------------------------


@dataclass(frozen=True)
class ConeInequality:
    """A strict inequality sum(sign * w(point)) > 0 from one interior edge.

    kind 1 folds across the diagonal edge (i-1,j)-(i,j-1), kind 2 across the
    vertical edge (i,j-1)-(i,j), kind 3 across the horizontal edge
    (i-1,j)-(i,j); the anchor is the index pair (i, j).
    """

    kind: int
    anchor: tuple
    terms: tuple  # four (point, +1 | -1) pairs

    def evaluate(self, values) -> Fraction:
        return sum(Fraction(values[p]) * s for p, s in self.terms)


def secondary_cone_facets(delta: int):
    """One inequality per interior edge, 3/2 (delta^2 - delta) in total."""
    if delta < 1:
        raise DomainError("delta must be positive")
    out = []
    for j in range(1, delta):
        for i in range(1, delta + 1 - j):
            a = (i, j)
            out.append(ConeInequality(1, a, (
                ((i - 1, j - 1), 1), ((i, j), 1), ((i - 1, j), -1), ((i, j - 1), -1))))
            out.append(ConeInequality(2, a, (
                ((i - 1, j), 1), ((i + 1, j - 1), 1), ((i, j - 1), -1), ((i, j), -1))))
            out.append(ConeInequality(3, a, (
                ((i, j - 1), 1), ((i - 1, j + 1), 1), ((i - 1, j), -1), ((i, j), -1))))
    return out


def in_secondary_cone(w: HeightFunction):
    """Exact strict check of all cone inequalities; returns (ok, violations)."""
    violations = [ineq for ineq in secondary_cone_facets(w.delta)
                  if ineq.evaluate(w.values) <= 0]
    return (not violations, violations)


# -- folding conditions of an arbitrary plane triangulation -------------------


@dataclass(frozen=True)
class FoldInequality:
    """Strict convexity across one interior edge of a given triangulation."""

    edge: tuple  # (q, r)
    apexes: tuple  # (p, s)
    coeffs: tuple  # ((point, Fraction), ...); sum of coeff * w(point) must be > 0

    def evaluate(self, values) -> Fraction:
        return sum(Fraction(values[p]) * c for p, c in self.coeffs)


def fold_inequalities(t13n: Triangulation2D):
    out = []
    cells_by_edge = edge_incidence(t13n.triangles)
    for edge in t13n.interior_edges:
        t1, t2 = (t.vertices for t in cells_by_edge[edge])
        q, r = edge
        p = next(v for v in t1 if v not in edge)
        s = next(v for v in t2 if v not in edge)
        # express s = lam*q + mu*r + nu*p affinely, nu < 0 since s is across the edge
        ax, ay = q[0] - p[0], q[1] - p[1]
        bx, by = r[0] - p[0], r[1] - p[1]
        cx, cy = s[0] - p[0], s[1] - p[1]
        det = ax * by - ay * bx
        lam = Fraction(cx * by - cy * bx, det)
        mu = Fraction(ax * cy - ay * cx, det)
        nu = 1 - lam - mu
        if nu >= 0:
            raise DomainError(f"cells across {edge} do not oppose each other")
        out.append(FoldInequality(edge, (p, s), (
            (s, Fraction(1)), (q, -lam), (r, -mu), (p, -nu))))
    return out


def in_cone_of(t13n: Triangulation2D, values):
    """Strict folding check for arbitrary triangulations; returns (ok, violations)."""
    vals = {tuple(p): v for p, v in values.items()}
    violations = [ineq for ineq in fold_inequalities(t13n) if ineq.evaluate(vals) <= 0]
    return (not violations, violations)


# -- the small inductive height function --------------------------------------


def _propagation_rounds(delta: int, seed: dict) -> dict:
    """Grow heights outward with w(p) = w(q) + w(r) - w(s) + 1.

    The rule fires for a cell {p,q,r} whose neighbor across (q,r) is {q,r,s}
    with q, r, s already assigned.  Rounds are synchronous and candidates are
    merged with max(), which keeps the result order-independent.
    """
    t13n = honeycomb_triangulation(delta)
    cells_by_edge = edge_incidence(t13n.triangles)
    values = dict(seed)
    todo = set(t13n.points) - set(values)
    while todo:
        candidates = {}
        for t in t13n.triangles:
            unknown = [v for v in t.vertices if v not in values]
            if len(unknown) != 1:
                continue
            p = unknown[0]
            q, r = (v for v in t.vertices if v != p)
            edge = tuple(sorted((q, r)))
            for other in cells_by_edge[edge]:
                if other is t:
                    continue
                s = next(v for v in other.vertices if v not in edge)
                if s in values:
                    val = values[q] + values[r] - values[s] + 1
                    candidates[p] = max(candidates.get(p, val), val)
        if not candidates:
            raise DomainError("height propagation stalled")
        values.update(candidates)
        todo -= set(candidates)
    return values


def _base_heights(base: int) -> dict:
    if base == 1:
        return {p: 0 for p in lattice_points(1)}
    if base == 2:
        return _propagation_rounds(2, {(1, 0): 0, (0, 1): 0, (1, 1): 0})
    if base == 3:
        ring = {(1, 0), (0, 1), (2, 0), (0, 2), (2, 1), (1, 2)}
        seed = {(1, 1): 0}
        seed.update({p: 1 for p in ring})
        return _propagation_rounds(3, seed)
    raise DomainError(f"no base case for {base}")


def minimal_height(delta: int) -> HeightFunction:
    """Small integral heights built layer by layer from a central seed.

    For delta = 1 mod 3 this is the inductive construction growing from the
    all-zero central unit triangle in steps of three, and the result is the
    unique minimizer of the total height.  For the other residues the same
    local rule runs from a documented seed (central down-triangle at zero for
    delta = 2 mod 3, central point at zero with its hexagonal ring at one for
    delta = 0 mod 3); those outputs are admissible candidates validated by
    cone membership, not certified global minimizers.
    """
    if delta < 1:
        raise DomainError("delta must be positive")
    base = delta % 3 or 3
    values = _base_heights(base)
    b = base
    while b < delta:
        shifted = {(i + 1, j + 1): v for (i, j), v in values.items()}
        values = _propagation_rounds(b + 3, shifted)
        b += 3
    return HeightFunction(delta, values)
