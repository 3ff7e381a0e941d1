"""Experiment orchestration: seeded campaigns, reports, persisted run records.

Determinism contract: a RunRecord's per-instance results depend only on the
experiment configuration, including the master seed.  Retry r of instance k
draws from the splitmix64 substream derive_seed(seed, 256 k + r) and the
instance's shear stream is derive_seed(seed, k), so what instance k draws
does not depend on the instances before it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .elimination import (boundary_check, certify_elimination, count_real_intersections,
                          eliminate_to_t)
from .errors import DegenerateInstanceError, DomainError
from .heights import HeightFunction, in_secondary_cone, load_heights, minimal_height, secondary_cone_facets
from .lattice import f_vector, hexagon_example, honeycomb_triangulation, signature
from .orient import facet_system, orientation_witness, standard_triangle
from .plotting import plot_pair, write_atomic
from .rng import Stream, derive_seed
from .systems import meta_system, wronski_from_points, wronski_pair

T_ZERO_BAND = Fraction(1, 2 ** 30)  # |t| below this is redrawn (t = 0 collapses everything)


def resolve_height(name, delta: int) -> HeightFunction:
    """Height from a CLI-style name: 'rho', 'min'/'minimal', or a JSON file path."""
    if name in ("rho", None):
        return HeightFunction.rho(delta)
    if name in ("min", "minimal", "mu"):
        return minimal_height(delta)
    return load_heights(name, delta)


def check_ranges(values, name: str, pairs: int = 1) -> tuple:
    """values as a tuple of `pairs` lo,hi pairs with lo < hi each; DomainError otherwise."""
    values = tuple(values)
    if len(values) != 2 * pairs or any(lo >= hi for lo, hi in zip(values[::2], values[1::2])):
        raise DomainError(f"{name} must be {pairs} lo,hi pair(s) with lo < hi, not "
                          + ",".join(map(str, values)))
    return values


@dataclass
class ExperimentConfig:
    kind: str
    delta: int | None = None
    height: str | None = None
    seed: int | None = None
    n: int = 1
    t_range: tuple = (Fraction(-1), Fraction(1))
    c_range: tuple = (Fraction(-50), Fraction(50))
    t: Fraction | None = None
    c: tuple | None = None
    cprime: tuple | None = None
    window: tuple = (Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))
    resolution: int = 512
    refine: int = 2
    t0_scan: tuple | None = None  # a meta root window other than (0, 1]
    out: str | None = None
    fmt: str = "json"

    STOCHASTIC = ("montecarlo",)

    def validate(self):
        if self.kind not in ("montecarlo", "pair", "meta", "triangulate", "orient", "plot"):
            raise DomainError(f"unknown experiment kind {self.kind!r}")
        if self.n < 1:
            raise DomainError("n must be at least 1")
        if self.kind in self.STOCHASTIC and self.seed is None:
            raise DomainError("stochastic experiments require an explicit seed")
        check_ranges(self.t_range, "t_range")
        check_ranges(self.c_range, "c_range")
        check_ranges(self.window, "window", 2)
        return self

    def to_json(self) -> dict:
        out = {}
        for k, v in self.__dict__.items():
            if v is None:
                continue
            if isinstance(v, Fraction):
                v = str(v)
            elif isinstance(v, tuple):
                v = [str(x) if isinstance(x, Fraction) else x for x in v]
            out[k] = v
        return out


@dataclass
class RunRecord:
    kind: str
    config: dict
    results: list
    aggregate: dict = field(default_factory=dict)
    wall_time: float = 0.0
    version: str = __version__

    def to_json(self) -> dict:
        return {"kind": self.kind, "config": self.config, "results": self.results,
                "aggregate": self.aggregate, "wall_time": self.wall_time,
                "version": self.version}

    def payload_json(self) -> dict:
        """The deterministic part (timing dropped), for reproducibility checks."""
        out = self.to_json()
        del out["wall_time"]
        return out

    def write(self, path: str):
        write_atomic(path, json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")


def _draw_nonzero(stream: Stream, lo: Fraction, hi: Fraction, band: Fraction):
    for _ in range(64):
        v = stream.uniform(lo, hi)
        if abs(v) >= band:
            return v
    raise DegenerateInstanceError("draw range collapses to zero")


def monte_carlo_hexagon(n: int, seed: int, t_range=(Fraction(-1), Fraction(1)),
                        c_range=(Fraction(-50), Fraction(50))) -> RunRecord:
    """Count real intersections of random hexagon curve pairs.

    Per instance: one t from t_range (redrawn while |t| < 2^-30) and six color
    coefficients from c_range (instance redrawn if any is exactly zero or the
    counting degenerates; retries are bounded and recorded).
    """
    cfg = ExperimentConfig("montecarlo", seed=seed, n=n,
                           t_range=tuple(map(Fraction, t_range)),
                           c_range=tuple(map(Fraction, c_range))).validate()
    hexa = hexagon_example()
    start = time.monotonic()
    results = []
    hist = {}
    sign_hist = {"neg": {}, "pos": {}}
    for k in range(n):
        record = None
        for retry in range(16):
            stream = Stream(derive_seed(seed, (k << 8) | retry))
            t = _draw_nonzero(stream, *cfg.t_range, band=T_ZERO_BAND)
            coeffs = [stream.uniform(*cfg.c_range) for _ in range(6)]
            if any(c == 0 for c in coeffs):
                continue
            w1 = wronski_from_points(hexa.points, hexa.coloring, hexa.heights,
                                     coeffs[:3], t=t)
            w2 = wronski_from_points(hexa.points, hexa.coloring, hexa.heights,
                                     coeffs[3:], t=t)
            try:
                count, total = count_real_intersections(w1, w2, seed=derive_seed(seed, k))
            except DegenerateInstanceError:
                continue
            record = {"index": k, "count": count, "total": total,
                      "t_sign": "neg" if t < 0 else "pos", "retries": retry}
            break
        if record is None:
            raise DegenerateInstanceError(f"instance {k} stayed degenerate after retries")
        results.append(record)
        hist[record["count"]] = hist.get(record["count"], 0) + 1
        sh = sign_hist[record["t_sign"]]
        sh[record["count"]] = sh.get(record["count"], 0) + 1
    agg = {
        "histogram": {str(c): hist[c] for c in sorted(hist)},
        "by_t_sign": {s: {str(c): h[c] for c in sorted(h)} for s, h in sign_hist.items()},
        "share": {str(c): hist[c] / n for c in sorted(hist)},
    }
    return RunRecord("montecarlo", cfg.to_json(), results, agg, time.monotonic() - start)


def pair_experiment(delta: int, height, t, c, cprime, seed: int = 0) -> RunRecord:
    """Build one curve pair, count its real intersections, compare to the bound."""
    start = time.monotonic()
    hf = resolve_height(height, delta)
    in_cone, violations = in_secondary_cone(hf)
    pair = wronski_pair(delta, hf, c, cprime, t)
    count, total = count_real_intersections(*pair.polys, seed=seed)
    sig = signature(honeycomb_triangulation(delta))
    orient_ok = orientation_witness(facet_system(standard_triangle(delta))) is not None
    res = {
        "delta": delta,
        "t": str(Fraction(t)),
        "c": [str(Fraction(v)) for v in c],
        "cprime": [str(Fraction(v)) for v in cprime],
        "real_intersections": count,
        "total_with_multiplicity": total,
        "signature": sig,
        "orientable": orient_ok,
        "meets_signature_bound": count >= sig,
        "height_in_cone": in_cone,
    }
    if not in_cone:
        res["warning"] = f"height violates {len(violations)} cone inequalities"
    cfg = ExperimentConfig("pair", delta=delta, height=height, t=Fraction(t), seed=seed,
                           c=tuple(map(Fraction, c)), cprime=tuple(map(Fraction, cprime)))
    return RunRecord("pair", cfg.to_json(), [res], {}, time.monotonic() - start)


def meta_report(delta: int, height, refine: int = 2, seed: int = 0,
                scan=(Fraction(0), Fraction(1))) -> RunRecord:
    """Eliminate the meta-system and report real-root data plus boundary strata."""
    start = time.monotonic()
    hf = resolve_height(height, delta)
    system = meta_system(delta, hf)
    warning = None
    if delta % 2 == 0:
        warning = "delta is even: the orientability hypothesis fails"
    result = eliminate_to_t(system, refine=refine, seed=seed)
    lo, hi = Fraction(scan[0]), Fraction(scan[1])
    in_window = result.real_root_candidates(lo=lo, hi=hi, include_zero=False)
    width = Fraction(1, 10000)
    all_nonzero = result.real_root_candidates(include_zero=False, refine_width=width)
    positive = result.real_root_candidates(lo=0, include_zero=False, refine_width=width)
    cert = certify_elimination(result)
    boundary = [
        {"stratum": rep.label, "status": rep.status, "colors": list(rep.colors_present),
         "t_candidates": [iv.to_json() for iv in rep.t_candidates], "detail": rep.detail}
        for rep in boundary_check(system)
    ]
    res = {
        "delta": delta,
        "elimination": result.to_json(),
        "real_roots_in_window": [iv.to_json() for iv in in_window],
        "window": [str(lo), str(hi)],
        "real_roots_nonzero_t": len(all_nonzero),
        "min_positive_root": positive[0].to_json() if positive else None,
        "no_real_solutions_nonzero_t": {
            "certified": cert.certified, "method": cert.method, "detail": cert.detail},
        "boundary": boundary,
    }
    if warning:
        res["warning"] = warning
    cfg = ExperimentConfig("meta", delta=delta, height=height, refine=refine, seed=seed,
                           t0_scan=None if (lo, hi) == (0, 1) else (lo, hi))
    return RunRecord("meta", cfg.to_json(), [res], {}, time.monotonic() - start)


def triangulation_report(delta: int, height=None) -> RunRecord:
    start = time.monotonic()
    t13n = honeycomb_triangulation(delta)
    fv = f_vector(t13n)
    witness = orientation_witness(facet_system(standard_triangle(delta)))
    res = {
        "delta": delta,
        "f_vector": {"vertices": fv.vertices, "edges": fv.edges, "triangles": fv.triangles,
                     "interior_vertices": fv.interior_vertices,
                     "interior_edges": fv.interior_edges},
        "signature": signature(t13n),
        "orientable": witness is not None,
        "witness": list(witness) if witness is not None else None,
        "cone_facets": len(secondary_cone_facets(delta)),
    }
    if height is not None:
        hf = resolve_height(height, delta)
        ok, violations = in_secondary_cone(hf)
        res["in_cone"] = ok
        res["cone_violations"] = len(violations)
    cfg = ExperimentConfig("triangulate", delta=delta, height=height)
    return RunRecord("triangulate", cfg.to_json(), [res], {}, time.monotonic() - start)


def plot_curves(delta: int, height, t, c, cprime, window, resolution: int,
                path: str, seed: int = 0) -> str:
    """SVG of one curve pair with markers at the certified real intersections."""
    hf = resolve_height(height, delta)
    pair = wronski_pair(delta, hf, c, cprime, t)
    return plot_pair(*pair.polys, window=window, resolution=resolution, path=path, seed=seed)
