"""Plane lattice triangulations: the honeycomb family and user-supplied complexes.

Lattice points are plain (i, j) int tuples.  All derived objects are frozen
and hashable, so everything here is safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import DomainError, NotFoldableError, StructureError


@dataclass(frozen=True)
class Triangle:
    """A lattice triangle; orientation is set for honeycomb cells only.

    orientation 'up' means a lattice translate of conv{(0,0),(1,0),(0,1)},
    'down' one of conv{(1,0),(0,1),(1,1)}; other shapes get None.
    """

    vertices: tuple  # 3 points, sorted
    orientation: str | None
    cell_volume: int

    @classmethod
    def from_points(cls, pts) -> "Triangle":
        vs = tuple(sorted(tuple(p) for p in pts))
        vol = normalized_volume(vs)
        return cls(vs, _classify_orientation(vs), vol)


@dataclass(frozen=True)
class FVector:
    vertices: int
    edges: int
    triangles: int
    interior_vertices: int
    interior_edges: int


@dataclass(frozen=True)
class Triangulation2D:
    """A triangulation of a lattice polygon using every listed point."""

    points: tuple
    triangles: tuple  # of Triangle, sorted by vertex tuples
    coloring: dict  # point -> {0,1,2}
    interior_edges: tuple  # of sorted point pairs
    heights: dict | None = None  # optional heights carried by input files

    def __post_init__(self):
        object.__setattr__(self, "coloring", dict(self.coloring))
        if self.heights is not None:
            object.__setattr__(self, "heights", dict(self.heights))


def normalized_volume(tri) -> int:
    """Normalized volume |det(v2-v1, v3-v1)| of a triangle or point triple."""
    if isinstance(tri, Triangle):
        return tri.cell_volume
    vs = tuple(tri)
    (x1, y1), (x2, y2), (x3, y3) = vs
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    if det == 0:
        raise DomainError(f"degenerate triangle {vs}")
    return abs(det)


def _classify_orientation(vs):
    # vertices arrive sorted: up cell {(i,j),(i+1,j),(i,j+1)} sorts to
    # ((i,j),(i,j+1),(i+1,j)); down cell {(i+1,j),(i,j+1),(i+1,j+1)} to
    # ((i,j+1),(i+1,j),(i+1,j+1))
    a, b, c = vs
    (x, y) = a
    if b == (x, y + 1) and c == (x + 1, y):
        return "up"
    if b == (x + 1, y - 1) and c == (x + 1, y):
        return "down"
    return None


def lattice_points(delta: int):
    """All (i, j) with i, j >= 0 and i + j <= delta, row-major by j then i."""
    if delta < 1:
        raise DomainError("delta must be a positive integer")
    return [(i, j) for j in range(delta + 1) for i in range(delta + 1 - j)]


def honeycomb_color(p) -> int:
    return (p[0] - p[1]) % 3


def honeycomb_triangulation(delta: int) -> Triangulation2D:
    """The unimodular up/down triangulation of the dilated standard triangle."""
    pts = lattice_points(delta)
    tris = []
    for i in range(delta):
        for j in range(delta - i):
            tris.append(Triangle.from_points(((i, j), (i + 1, j), (i, j + 1))))
            if i + j <= delta - 2:
                tris.append(Triangle.from_points(((i + 1, j), (i, j + 1), (i + 1, j + 1))))
    tris.sort(key=lambda t: t.vertices)
    coloring = {p: honeycomb_color(p) for p in pts}
    return Triangulation2D(tuple(pts), tuple(tris), coloring, _interior_edges(tris))


def edge_incidence(triangles):
    inc = {}
    for t in triangles:
        a, b, c = t.vertices
        for e in ((a, b), (a, c), (b, c)):
            key = tuple(sorted(e))
            inc.setdefault(key, []).append(t)
    return inc


def _interior_edges(triangles):
    inc = edge_incidence(triangles)
    return tuple(sorted(e for e, ts in inc.items() if len(ts) == 2))


def convex_hull_ccw(points):
    """Counterclockwise convex hull (monotone chain); strict turns only."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) < 3:
        raise DomainError("need at least 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DomainError("points are collinear")
    return hull


def _polygon_double_area(loop) -> int:
    s = 0
    for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
        s += x1 * y2 - x2 * y1
    return abs(s)


def build_triangulation(points, triangle_indices, coloring=None, heights=None) -> Triangulation2D:
    """Assemble and validate a triangulation from raw data.

    Checks: all points used, nondegenerate cells, each edge in at most two
    cells, cells tile the convex hull (area match), Euler characteristic 1.
    A missing coloring is computed by propagation and fails with
    NotFoldableError when impossible.
    """
    pts = [tuple(p) for p in points]
    if len(set(pts)) != len(pts):
        raise StructureError("duplicate points")
    tris = []
    for idx in triangle_indices:
        if len(idx) != 3:
            raise StructureError(f"triangle needs 3 vertices, got {idx}")
        try:
            tri_pts = [pts[k] for k in idx]
        except IndexError as exc:
            raise StructureError(f"triangle index out of range: {idx}") from exc
        tris.append(Triangle.from_points(tri_pts))
    tris.sort(key=lambda t: t.vertices)
    if len(set(t.vertices for t in tris)) != len(tris):
        raise StructureError("repeated triangle")

    used = set()
    for t in tris:
        used.update(t.vertices)
    if used != set(pts):
        raise StructureError("every point must be a vertex of some triangle")

    inc = edge_incidence(tris)
    if any(len(ts) > 2 for ts in inc.values()):
        raise StructureError("an edge belongs to more than two triangles")
    hull = convex_hull_ccw(pts)
    if sum(t.cell_volume for t in tris) != _polygon_double_area(hull):
        raise StructureError("triangles do not tile the convex hull")
    if len(pts) - len(inc) + len(tris) != 1:
        raise StructureError("complex is not a disc (Euler characteristic)")

    if coloring is None:
        col = compute_coloring(tris)
    else:
        col = {tuple(p): int(c) for p, c in coloring.items()} if isinstance(coloring, dict) \
            else {p: int(c) for p, c in zip(pts, coloring)}
        _check_coloring(tris, col)
    h = None
    if heights is not None:
        h = {tuple(p): Fraction(v) for p, v in heights.items()} if isinstance(heights, dict) \
            else {p: Fraction(v) for p, v in zip(pts, heights)}
    return Triangulation2D(tuple(pts), tuple(tris), col, _interior_edges(tris), h)


def _check_coloring(triangles, coloring):
    for t in triangles:
        cols = [coloring.get(v) for v in t.vertices]
        if None in cols:
            raise StructureError("coloring misses a vertex")
        if len(set(cols)) != 3:
            raise NotFoldableError(f"coloring not proper on {t.vertices}")


def compute_coloring(triangles) -> dict:
    """Proper 3-coloring by propagation across shared edges.

    Normalized so the lexicographically smallest point has color 0 and its
    smallest differently-colored neighbor has color 1.
    """
    col = {}
    a, b, c = triangles[0].vertices
    col[a], col[b], col[c] = 0, 1, 2
    inc = edge_incidence(triangles)
    stack = [triangles[0]]
    seen = {triangles[0].vertices}
    while stack:
        t = stack.pop()
        va, vb, vc = t.vertices
        for e in ((va, vb), (va, vc), (vb, vc)):
            key = tuple(sorted(e))
            for nb in inc[key]:
                if nb.vertices in seen:
                    continue
                other = next(v for v in nb.vertices if v not in e)
                forced = 3 - col[e[0]] - col[e[1]]
                if other in col and col[other] != forced:
                    raise NotFoldableError("graph admits no proper 3-coloring")
                col[other] = forced
                seen.add(nb.vertices)
                stack.append(nb)
    _check_coloring(triangles, col)
    # relabel deterministically
    pts = sorted(col)
    perm = {col[pts[0]]: 0}
    for p in pts:
        if col[p] not in perm:
            perm[col[p]] = len(perm)
    return {p: perm[c] for p, c in col.items()}


def f_vector(t13n: Triangulation2D) -> FVector:
    inc = edge_incidence(t13n.triangles)
    boundary_pts = set()
    for e, ts in inc.items():
        if len(ts) == 1:
            boundary_pts.update(e)
    interior_e = sum(1 for ts in inc.values() if len(ts) == 2)
    interior_v = len(t13n.points) - len(boundary_pts)
    return FVector(len(t13n.points), len(inc), len(t13n.triangles), interior_v, interior_e)


def dual_bipartition(t13n: Triangulation2D):
    """Two-color the dual graph; black is the class of the lex-smallest cell."""
    tris = list(t13n.triangles)
    inc = edge_incidence(tris)
    color = {tris[0].vertices: 0}
    stack = [tris[0]]
    while stack:
        t = stack.pop()
        a, b, c = t.vertices
        for e in ((a, b), (a, c), (b, c)):
            for nb in inc[tuple(sorted(e))]:
                if nb.vertices == t.vertices:
                    continue
                want = 1 - color[t.vertices]
                got = color.get(nb.vertices)
                if got is None:
                    color[nb.vertices] = want
                    stack.append(nb)
                elif got != want:
                    raise NotFoldableError("dual graph is not bipartite: not foldable")
    if len(color) != len(tris):
        raise StructureError("dual graph is disconnected")
    smallest = min(color)  # triangles are sorted, but be explicit
    black_label = color[smallest]
    black = frozenset(t for t in tris if color[t.vertices] == black_label)
    white = frozenset(t for t in tris if color[t.vertices] != black_label)
    return black, white


def signature(t13n: Triangulation2D) -> int:
    """|#black - #white| over cells of odd normalized volume."""
    black, white = dual_bipartition(t13n)
    nb = sum(1 for t in black if t.cell_volume % 2 == 1)
    nw = sum(1 for t in white if t.cell_volume % 2 == 1)
    return abs(nb - nw)


# -- file format -------------------------------------------------------------


def to_json_dict(t13n: Triangulation2D) -> dict:
    index = {p: k for k, p in enumerate(t13n.points)}
    out = {
        "points": [list(p) for p in t13n.points],
        "triangles": [[index[v] for v in t.vertices] for t in t13n.triangles],
        "coloring": [t13n.coloring[p] for p in t13n.points],
    }
    if t13n.heights is not None:
        out["heights"] = [str(t13n.heights[p]) for p in t13n.points]
    return out


def from_json_dict(obj) -> Triangulation2D:
    pts = [tuple(p) for p in obj["points"]]
    col = obj.get("coloring")
    if isinstance(col, list):
        col = {p: int(c) for p, c in zip(pts, col)}
    heights = obj.get("heights")
    if isinstance(heights, list):
        heights = {p: Fraction(h) for p, h in zip(pts, heights)}
    elif isinstance(heights, dict):
        heights = {_parse_point_key(k): Fraction(v) for k, v in heights.items()}
    return build_triangulation(pts, obj["triangles"], col, heights)


def _parse_point_key(key: str):
    i, j = key.split(",")
    return (int(i), int(j))


def load_triangulation(path) -> Triangulation2D:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))


def hexagon_example() -> Triangulation2D:
    """The seven-point hexagon with its signature-2 triangulation and heights."""
    data = resources.files("wronski.data").joinpath("hexagon.json").read_text("utf-8")
    return from_json_dict(json.loads(data))
