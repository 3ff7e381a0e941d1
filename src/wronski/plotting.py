"""Static SVG renderings of curve pairs via marching squares.

Plotting is the one deliberately non-certified corner of the package: the
zero contours come from floating-point samples on a grid.  Intersection
markers come from the exact isolator alone (resultant roots refined below 1e-6,
then each fiber's roots in y, over that float abscissa taken as an exact
rational, refined below 2^-60); only the finished coordinates are rounded.
"""

from __future__ import annotations

import os
import tempfile
from fractions import Fraction

from .elimination import sheared_resultant
from .errors import DegenerateInstanceError, DomainError, EliminationError
from .polynomial import Polynomial
from .realroots import UnivariatePolynomial, isolate_real_roots, refine_interval

# corner bits: 1=(i,j), 2=(i+1,j), 4=(i+1,j+1), 8=(i,j+1); edges by corner pair
_EDGES = {
    1: [((0, 1), (0, 3))], 2: [((0, 1), (1, 2))], 4: [((1, 2), (2, 3))],
    8: [((2, 3), (0, 3))], 3: [((0, 3), (1, 2))], 6: [((0, 1), (2, 3))],
    12: [((1, 2), (0, 3))], 9: [((0, 1), (2, 3))],
}


def _cell_segments(case):
    if case in (0, 15):
        return []
    if case in _EDGES:
        return _EDGES[case]
    if case in (5, 10):  # ambiguous saddles; either pairing draws both crossings
        return [((0, 1), (0, 3)), ((1, 2), (2, 3))] if case == 5 \
            else [((0, 1), (1, 2)), ((2, 3), (0, 3))]
    return _EDGES[15 - case]


def marching_squares(values, xs, ys):
    """Zero-contour segments of a scalar grid; values[i][j] = f(xs[i], ys[j])."""
    segs = []
    corners_idx = [(0, 0), (1, 0), (1, 1), (0, 1)]
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            vals = [values[i + di][j + dj] for di, dj in corners_idx]
            pts = [(xs[i + di], ys[j + dj]) for di, dj in corners_idx]
            case = 0
            for k, v in enumerate(vals):
                if v > 0:
                    case |= 1 << k
            for (a1, a2), (b1, b2) in _cell_segments(case):
                segs.append((_lerp(pts[a1], pts[a2], vals[a1], vals[a2]),
                             _lerp(pts[b1], pts[b2], vals[b1], vals[b2])))
    return segs


def _lerp(p, q, vp, vq):
    if vp == vq:
        t = 0.5
    else:
        t = max(0.0, min(1.0, vp / (vp - vq)))
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def sample_grid(poly: Polynomial, window, resolution: int):
    x0, x1, y0, y1 = window
    xs = [x0 + (x1 - x0) * k / resolution for k in range(resolution + 1)]
    ys = [y0 + (y1 - y0) * k / resolution for k in range(resolution + 1)]
    fn = _compiled(poly)
    values = [[fn(x, y) for y in ys] for x in xs]
    return values, xs, ys


def _compiled(poly: Polynomial):
    terms = [(float(c), e) for e, c in poly.terms.items()]
    vars_ = poly.vars

    def fn(x, y):
        env = {"x": x, "y": y}
        total = 0.0
        for c, e in terms:
            v = c
            for name, k in zip(vars_, e):
                if k:
                    v *= env[name] ** k
            total += v
        return total

    return fn


def exact_intersection_markers(f: Polynomial, g: Polynomial, seed: int = 0):
    """Float (x, y) markers from exactly isolated intersection points.

    Curves that share a component or do not meet have nothing to mark and
    raise DegenerateInstanceError.
    """
    try:
        s, A, B, u = sheared_resultant(f, g, seed)
    except EliminationError as exc:
        raise DegenerateInstanceError("no usable shear for marker extraction") from exc
    if u.degree() <= 0:
        raise DegenerateInstanceError("no usable shear for marker extraction")
    markers = []
    for iv in isolate_real_roots(u):
        iv = refine_interval(u, iv, Fraction(1, 10 ** 6))
        x_hat = Fraction(float(iv.midpoint()))  # denominators near 2^53 keep the fiber small
        y_c = _fiber_root(A, B, x_hat)
        if y_c is None:
            continue
        # the rows are those of f(X + s y, y), so the original abscissa is X + s y
        markers.append((float(x_hat + s * y_c), float(y_c)))
    return markers


def _fiber_root(A, B, x0: Fraction):
    """The real root y of A(x0, y) where |B(x0, y)| is least, or None (markers only).

    Both curves are evaluated exactly at x0; the roots in y are isolated and
    refined below 2^-60 by the exact isolator, and each is represented by the
    midpoint of its interval.
    """
    fy, gy = (UnivariatePolynomial([UnivariatePolynomial(row)(x0) for row in rows])
              for rows in (A, B))
    if fy.is_zero():
        return None
    ys = [refine_interval(fy, iv, Fraction(1, 2 ** 60)).midpoint()
          for iv in isolate_real_roots(fy)]
    return min(ys, key=lambda y: abs(gy(y)), default=None)


def render_svg(segment_groups, markers, window, size=560, warnings=()):
    """Plain SVG: one polyline color per curve, black dots at markers."""
    x0, x1, y0, y1 = window
    sx = size / (x1 - x0)
    sy = size / (y1 - y0)

    def px(p):
        return (round((p[0] - x0) * sx, 2), round((y1 - p[1]) * sy, 2))

    colors = ["#c22", "#22c", "#2a2", "#a2a"]
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}" '
             f'width="{size}" height="{size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for gi, segs in enumerate(segment_groups):
        color = colors[gi % len(colors)]
        for a, b in segs:
            (ax, ay), (bx, by) = px(a), px(b)
            lines.append(f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                         f'stroke="{color}" stroke-width="1.4"/>')
    for m in markers:
        mx, my = px(m)
        lines.append(f'<circle cx="{mx}" cy="{my}" r="4" fill="black"/>')
    for k, w in enumerate(warnings):
        lines.append(f'<text x="8" y="{18 + 16 * k}" font-size="13" fill="#b00">{w}</text>')
    lines.append("</svg>")
    return "\n".join(lines)


def write_atomic(path: str, payload: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def plot_pair(f: Polynomial, g: Polynomial, window, resolution: int, path: str,
              seed: int = 0) -> str:
    """Render two implicit curves and their certified intersections to SVG."""
    if resolution < 32:
        raise DomainError("resolution must be at least 32")
    groups = []
    warnings = []
    for name, poly in (("first", f), ("second", g)):
        values, xs, ys = sample_grid(poly, [float(w) for w in window], resolution)
        segs = marching_squares(values, xs, ys)
        if not segs:
            warnings.append(f"empty contour: {name} curve misses the window")
        groups.append(segs)
    markers = []
    try:
        markers = [m for m in exact_intersection_markers(f, g, seed)
                   if window[0] <= m[0] <= window[1] and window[2] <= m[1] <= window[3]]
    except DegenerateInstanceError:
        warnings.append("marker extraction degenerate; markers omitted")
    svg = render_svg(groups, markers, [float(w) for w in window], warnings=warnings)
    write_atomic(path, svg)
    return path
