"""Builders for color-structured polynomials: single curves, pairs, meta-systems.

Every lattice point of the support carries a color in {0, 1, 2}; a curve in
the family fixes one coefficient per color, so the three color slices of the
support are the only degrees of freedom.  The deformation multiplies each
point's monomial by t raised to that point's height.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .heights import HeightFunction
from .lattice import honeycomb_color, lattice_points
from .polynomial import Polynomial, norm_coeff

VARS_XY = ("x", "y")
VARS_TXY = ("t", "x", "y")


def _omega_dict(omega, points) -> dict:
    vals = omega.values if isinstance(omega, HeightFunction) else {tuple(p): v for p, v in omega.items()}
    missing = [p for p in points if p not in vals]
    if missing:
        raise DomainError(f"heights missing at {missing[:3]}")
    for p in points:
        v = vals[p]
        if v != int(v):
            raise DomainError("deformation exponents must be integers")
    return {p: int(vals[p]) for p in points}


def _kappa_dict(kappa, points) -> dict:
    if kappa is None:
        return {p: 1 for p in points}
    vals = {tuple(p): norm_coeff(v) for p, v in kappa.items()}
    missing = [p for p in points if p not in vals]
    if missing:
        raise DomainError(f"kappa missing at {missing[:3]}")
    if any(vals[p] <= 0 for p in points):
        raise DomainError("kappa constants must be positive")
    return {p: vals[p] for p in points}


def wronski_from_points(points, coloring, omega, c, t=None, kappa=None) -> Polynomial:
    """One curve: sum over points of c[color] * kappa * t^height * x^i y^j.

    With t None the result is trivariate in (t, x, y); with a rational t it is
    the specialized bivariate curve.
    """
    points = [tuple(p) for p in points]
    om = _omega_dict(omega, points)
    ka = _kappa_dict(kappa, points)
    if len(c) != 3:
        raise DomainError("need one coefficient per color")
    c = [norm_coeff(v) for v in c]
    terms = {}
    if t is None:
        for p in points:
            e = (om[p], p[0], p[1])
            terms[e] = terms.get(e, 0) + c[coloring[p]] * ka[p]
        return Polynomial(VARS_TXY, terms)
    tq = Fraction(t)
    for p in points:
        e = (p[0], p[1])
        terms[e] = terms.get(e, 0) + c[coloring[p]] * ka[p] * tq ** om[p]
    return Polynomial(VARS_XY, terms)


def wronski_polynomial(delta: int, omega, c, t=None, kappa=None) -> Polynomial:
    """The degree-delta full-support curve with the honeycomb coloring."""
    pts = lattice_points(delta)
    coloring = {p: honeycomb_color(p) for p in pts}
    return wronski_from_points(pts, coloring, omega, c, t, kappa)


@dataclass(frozen=True)
class WronskiPair:
    """Two curves sharing support, heights, kappa and t; only the colors differ."""

    delta: int
    omega: dict
    kappa: dict
    c: tuple
    cprime: tuple
    t: Fraction
    polys: tuple  # two bivariate Polynomials


def wronski_pair(delta: int, omega, c, cprime, t, kappa=None) -> WronskiPair:
    if Fraction(t) == 0:
        raise DomainError("t = 0 collapses the deformation")
    if any(Fraction(v) == 0 for v in tuple(c) + tuple(cprime)):
        raise DomainError("zero color coefficients drop support")
    pts = lattice_points(delta)
    om = _omega_dict(omega, pts)
    ka = _kappa_dict(kappa, pts)
    p1 = wronski_polynomial(delta, om, c, t, ka)
    p2 = wronski_polynomial(delta, om, cprime, t, ka)
    return WronskiPair(delta, om, ka, tuple(map(Fraction, c)), tuple(map(Fraction, cprime)),
                       Fraction(t), (p1, p2))


@dataclass(frozen=True)
class MetaSystem:
    """The three color slices of the deformed support, as trivariate polynomials.

    f[k] collects t^height * kappa * x^i y^j over the points of color k; its
    simultaneous real solvability in (t, x, y) is what the solver modules
    analyze.
    """

    points: tuple
    coloring: dict
    omega: dict
    kappa: dict
    f: tuple  # three Polynomials in (t, x, y)
    delta: int | None = None

    def support_partition_ok(self) -> bool:
        union = set()
        for k in range(3):
            for e in self.f[k].support():
                pt = (e[1], e[2])
                if pt in union or self.coloring[pt] != k:
                    return False
                union.add(pt)
        return union == set(self.points)


def meta_system_from_points(points, coloring, omega, kappa=None, delta=None) -> MetaSystem:
    points = tuple(tuple(p) for p in points)
    coloring = {tuple(p): int(c) for p, c in coloring.items()}
    om = _omega_dict(omega, points)
    ka = _kappa_dict(kappa, points)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    fs = tuple(wronski_from_points(points, coloring, om, e, None, ka) for e in units)
    return MetaSystem(points, coloring, om, ka, fs, delta)


def meta_system(delta: int, omega, kappa=None) -> MetaSystem:
    pts = lattice_points(delta)
    coloring = {p: honeycomb_color(p) for p in pts}
    return meta_system_from_points(pts, coloring, omega, kappa, delta)


# -- the linear forms behind the color slices ---------------------------------


def z_variable(p) -> str:
    return f"z{p[0]}_{p[1]}"


def linear_form(system: MetaSystem, k: int) -> Polynomial:
    """The form sum(kappa_a z_a) over the points of color k."""
    pts = [p for p in system.points if system.coloring[p] == k]
    variables = tuple(z_variable(p) for p in sorted(system.points))
    terms = {}
    for p in pts:
        e = tuple(1 if v == z_variable(p) else 0 for v in variables)
        terms[e] = system.kappa[p]
    return Polynomial(variables, terms)


def deformed_monomial_map(system: MetaSystem) -> dict:
    """Substitution z_a -> t^height(a) x^i y^j realizing the deformation."""
    out = {}
    for p in system.points:
        out[z_variable(p)] = Polynomial(VARS_TXY, {(system.omega[p], p[0], p[1]): 1})
    return out


# -- boundary restrictions -----------------------------------------------------


@dataclass(frozen=True)
class BoundaryRestriction:
    """The system restricted to a coordinate stratum (some variables set to 0)."""

    zeroed: tuple  # subset of ("x", "y")
    label: str
    polys: dict  # color -> nonzero restricted Polynomial


def boundary_subsystems(system: MetaSystem):
    """Restrictions of the meta-system to the strata x=0, y=0 and x=y=0."""
    out = []
    for zeroed in (("x",), ("y",), ("x", "y")):
        polys = {}
        for k in range(3):
            f = system.f[k]
            # setting a variable to 0 keeps exactly the terms free of it
            idx = [i for i, v in enumerate(f.vars) if v in zeroed]
            terms = {e: c for e, c in f.terms.items() if not any(e[i] for i in idx)}
            g = Polynomial(f.vars, terms).drop_unused()
            if not g.is_zero():
                polys[k] = g
        label = "=".join(zeroed) + "=0"
        out.append(BoundaryRestriction(tuple(zeroed), label, polys))
    return out
