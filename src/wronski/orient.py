"""Orientability of the double-covered real toric surface of a lattice polygon.

The test works entirely on the polygon's facet data.  Each facet inequality
u.x >= -b contributes a sign vector ((-1)^b, (-1)^u1, ..., (-1)^ud); written
additively over GF(2) these are vectors v_i in GF(2)^(d+1).  The classical
criterion asks for a basis of the sign group such that every v_i is a product
of an odd number of basis elements.  That is equivalent to the solvability of
the inhomogeneous linear system

    phi . v_i = 1  over GF(2) for all i:

given such a basis, the functional phi taking value 1 on every basis vector
does the job; conversely any solution phi supports a basis inside the affine
hyperplane {phi = 1} (replace w by w + u, phi(u) = 1, wherever phi(w) = 0),
and expanding v_i in that basis uses |S| vectors with |S| = phi(v_i) = 1 mod 2.
Solvability is decided by Gaussian elimination with deterministic pivoting,
so the returned witness is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError
from .lattice import convex_hull_ccw


@dataclass(frozen=True)
class FacetSystem:
    """Irredundant facet rows (u, b), each encoding u . x >= -b with u primitive."""

    rows: tuple  # of ((u1, u2, ..., ud), b)

    @property
    def dim(self) -> int:
        return len(self.rows[0][0])


def standard_triangle(delta: int):
    """Vertices of the dilated standard triangle conv{0, d*e1, d*e2}."""
    if delta < 1:
        raise DomainError("delta must be positive")
    return [(0, 0), (delta, 0), (0, delta)]


def sheared_triangle(delta: int):
    """Vertices of the lattice-equivalent triangle conv{0, d*e1, d*(e1+e2)}."""
    if delta < 1:
        raise DomainError("delta must be positive")
    return [(0, 0), (delta, 0), (delta, delta)]


def facet_system(vertices) -> FacetSystem:
    """Minimal facet description of the convex hull of 2d lattice points."""
    hull = convex_hull_ccw(vertices)
    rows = []
    n = len(hull)
    for k in range(n):
        p = hull[k]
        q = hull[(k + 1) % n]
        ex, ey = q[0] - p[0], q[1] - p[1]
        u = (-ey, ex)  # inner normal of a ccw edge
        g = gcd(abs(u[0]), abs(u[1]))
        u = (u[0] // g, u[1] // g)
        b = -(u[0] * p[0] + u[1] * p[1])
        rows.append((u, b))
    rows.sort()
    return FacetSystem(tuple(rows))


def epsilon_vectors(system: FacetSystem):
    """GF(2) sign vectors (b mod 2, u mod 2 ...) of the facet rows."""
    return [tuple([b % 2] + [c % 2 for c in u]) for u, b in system.rows]


def _gf2_reduce(rows, width: int, rhs: int):
    """Gauss-Jordan elimination over GF(2) of bit rows, each augmented by rhs.

    Returns the reduced rows as masks (bit k for column k, bit width for the
    right-hand side) and {column: row} of the pivots, whose rows come first.
    """
    work = []
    for r in rows:
        mask = 0
        for k, bit in enumerate(r):
            if bit & 1:
                mask |= 1 << k
        work.append(mask | (rhs << width))
    pivot_of_col = {}
    row_idx = 0
    for col in range(width):
        pivot = None
        for r in range(row_idx, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and ((work[r] >> col) & 1):
                work[r] ^= work[row_idx]
        pivot_of_col[col] = row_idx
        row_idx += 1
    return work, pivot_of_col


def gf2_solve_all_ones(rows, width: int):
    """Solve phi . row = 1 over GF(2) for every row; None when unsolvable.

    Rows are bit tuples of the given width.  Returns the particular solution
    with all free variables zero.
    """
    work, pivot_of_col = _gf2_reduce(rows, width, 1)
    if any(work[len(pivot_of_col):]):  # 0 = 1: inconsistent
        return None
    phi = [0] * width
    for col, r in pivot_of_col.items():
        phi[col] = (work[r] >> width) & 1
    return tuple(phi)


def gf2_rank(rows, width: int) -> int:
    return len(_gf2_reduce(rows, width, 0)[1])


def orientation_witness(system: FacetSystem):
    """A functional phi with phi . eps = 1 for every facet sign vector, or None."""
    eps = epsilon_vectors(system)
    width = system.dim + 1
    phi = gf2_solve_all_ones(eps, width)
    if phi is not None:
        for v in eps:
            assert sum(a * b for a, b in zip(phi, v)) % 2 == 1
    return phi


def orientable(system: FacetSystem) -> bool:
    """Whether the smooth locus of the associated spherical variety is orientable."""
    return orientation_witness(system) is not None
