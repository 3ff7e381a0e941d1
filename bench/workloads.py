"""The benchmark's three workloads, each run as rounds of identical operations.

A workload builds its inputs once from the seed (the set-up), then runs
rounds.  Every round attempts the same items, so per-round counts repeat
exactly and the share of failed items does not depend on the run length.
Only the calls into wronski are timed; checks run outside the timed region.
"""

from __future__ import annotations

import random
import sys
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


def import_wronski():
    """Import wronski from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import wronski
    if Path(wronski.__file__).resolve().parent != SRC / "wronski":
        raise ImportError(f"wronski was imported from {wronski.__file__}, not {SRC}")
    return wronski


class Round:
    """Outcome of one round: items attempted, failed, rejected, timed seconds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.seconds = 0.0

    def timed(self, call, items=1):
        """call() inside the timed region; if it raises, items fail and None returns."""
        start = perf_counter()
        try:
            return call()
        except Exception:
            self.failed += items
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            self.seconds += perf_counter() - start

    def reject(self, items, problems):
        self.failed += items
        self.rejected += items
        print(f"rejected: {problems[0]}", file=sys.stderr)


class HexagonMC:
    """harness.monte_carlo_hexagon on the bundled hexagon: many tiny degree-6 counts."""

    name = "hexagon-mc"
    min_rounds = 2  # the reproducibility check compares two rounds

    def __init__(self, seed, n=50):
        import wronski.harness
        self.harness = wronski.harness
        self.n = n
        self.seed = seed
        self.payload = None

    def round(self, tracer=None):
        out = Round()
        out.attempted = self.n
        rec = out.timed(lambda: self.harness.monte_carlo_hexagon(self.n, seed=self.seed), self.n)
        if rec is None:
            return out
        payload = rec.payload_json()
        if self.payload is None:
            self.payload = payload
        if payload != self.payload:
            out.reject(self.n, ["payload_json differs between two runs with one seed"])
            return out
        problems = checks.hexagon_problems(rec.results, self.n)
        if problems:
            out.reject(len(problems), problems)
        if tracer is not None:
            tracer.add("harness.redraws", sum(r["retries"] for r in rec.results))
        return out


FIGURE_PAIRS = (  # (delta, c, c', t, real intersections shown in the paper's figure)
    (3, ("-3.14", "-8.13", "3.61"), ("11.13", "-9.34", "1.82"), "0.98", 3),
    (5, ("0.79", "0.11", "-0.72"), ("0.37", "0.84", "-0.97"), "0.6", 5),
    (4, ("0.99", "2.98", "1.95"), ("14.46", "1.57", "2.21"), "0.98", 0),
    (4, ("-10.46", "-1.07", "9.43"), ("12.62", "9.97", "-0.86"), "0.98", 0),
)


def draw_pairs(seed, delta, k):
    """k random pairs (c, c', t) as in criterion 8.

    Numerators lie in [-50, 50] \\ {0}, denominators in [1, 16], t = m/100.
    The m are a systematic sample of 1..99 ordered by the reduced denominator
    of m/100, which sets the coefficient size of the pair and so most of its
    cost; each run therefore gets the same mix of cheap and costly pairs.
    """
    rng = random.Random(seed)
    by_den = sorted(range(1, 100), key=lambda m: (Fraction(m, 100).denominator, m))
    start = rng.random() * 99 / k
    out = []
    for i in range(k):
        coeffs = []
        while len(coeffs) < 6:
            num = rng.randint(-50, 50)
            if num:
                coeffs.append(Fraction(num, rng.randint(1, 16)))
        out.append((tuple(coeffs[:3]), tuple(coeffs[3:]),
                    Fraction(by_den[int(start + i * 99 / k)], 100)))
    return out


class PairsDelta5:
    """count_real_intersections on the figure pairs and random rho pairs at delta 5."""

    name = "pairs-delta5"
    min_rounds = 1

    def __init__(self, seed, k=14, delta=5):
        import wronski.elimination
        from wronski.heights import HeightFunction
        from wronski.systems import wronski_pair
        self.elimination = wronski.elimination
        self.items = []  # (polys, delta, expected count or None)
        for d, c, cp, t, expected in FIGURE_PAIRS:
            pair = wronski_pair(d, HeightFunction.rho(d), tuple(map(Fraction, c)),
                                tuple(map(Fraction, cp)), Fraction(t))
            self.items.append((pair.polys, d, expected))
        for c, cp, t in draw_pairs(seed, delta, k):
            pair = wronski_pair(delta, HeightFunction.rho(delta), c, cp, t)
            self.items.append((pair.polys, delta, None))

    def round(self, tracer=None):
        out = Round()
        for k, (polys, delta, expected) in enumerate(self.items):
            out.attempted += 1
            if tracer is not None:
                tracer.item = k
            counted = out.timed(lambda: self.elimination.count_real_intersections(*polys, seed=k))
            if counted is None:
                continue
            problem = checks.pair_problem(*counted, delta, expected)
            if problem:
                out.reject(1, [problem])
        return out


@contextmanager
def captured(harness, result_cls, sink):
    """Record what meta_report's own eliminate_to_t returns and every interval isolated."""
    eliminate, candidates = harness.eliminate_to_t, result_cls.real_root_candidates

    def capture_eliminate(*args, **kwargs):
        sink["result"] = eliminate(*args, **kwargs)
        return sink["result"]

    def capture_candidates(self, *args, **kwargs):
        ivs = candidates(self, *args, **kwargs)
        sink["intervals"].extend(ivs)
        return ivs

    harness.eliminate_to_t = capture_eliminate
    result_cls.real_root_candidates = capture_candidates
    try:
        yield
    finally:
        harness.eliminate_to_t = eliminate
        result_cls.real_root_candidates = candidates


class MetaDelta4:
    """harness.meta_report(4, h, refine=2) for h = rho (exponents in one class mod 3)
    and h = min (not): what `wronski meta --eliminate` runs."""

    name = "meta-delta4"
    min_rounds = 1

    def __init__(self, seed, delta=4):
        import wronski.elimination
        import wronski.harness
        from wronski.systems import meta_system
        self.harness = wronski.harness
        self.result_cls = wronski.elimination.EliminationResult
        self.delta = delta
        self.seed = seed
        self.systems = {h: meta_system(delta, wronski.harness.resolve_height(h, delta))
                        for h in ("rho", "min")}

    def round(self, tracer=None):
        out = Round()
        for k, (height, system) in enumerate(self.systems.items()):
            out.attempted += 1
            if tracer is not None:
                tracer.item = k
            sink = {"intervals": []}
            if out.timed(lambda: self._report(height, sink)) is None:
                continue
            rng = random.Random(f"{self.seed}/{height}")
            problems = checks.eliminant_problems(sink["result"], sink["intervals"], system, rng)
            if problems:
                out.reject(1, problems)
        return out

    def _report(self, height, sink):
        with captured(self.harness, self.result_cls, sink):
            return self.harness.meta_report(self.delta, height, refine=2)


WORKLOADS = {w.name: w for w in (HexagonMC, PairsDelta5, MetaDelta4)}
