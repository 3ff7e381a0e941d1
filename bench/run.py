"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 bench/run.py --workload pairs-delta5 --seed 1 --seconds 40 --trace 0

With --trace 0 the result holds the end-to-end metrics: setup_s, the median
of seven set-ups (import wronski, build the inputs) each in a fresh
interpreter; items_per_s, the median over rounds of items completed per
timed second; peak_rss_mib of this process.  With --trace 1 the first half
of the time runs untraced and the second half traced, and the result holds
the per-layer metrics: for each traced function F of layer L, L.F.calls,
L.F.s and L.F.self_s as totals of one round, plus the counts and ratios of
README.md and the tracing overhead.  Spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

SETUP_SAMPLES = 7
OUT = Path(__file__).resolve().parent / "out"


def setup_seconds(name, seed) -> float:
    start = perf_counter()
    workloads.import_wronski()
    workloads.WORKLOADS[name](seed)
    return perf_counter() - start


def setup_samples(name, seed):
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, __file__, "--setup-probe", "--workload", name,
                               "--seed", str(seed)], capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_rounds(workload, seconds, min_rounds, tracer=None):
    rounds = []
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        rounds.append(workload.round(tracer))
    return rounds


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, seed, rounds):
    return {
        "setup_s": metric(statistics.median(setup_samples(name, seed)), "s"),
        "items_per_s": metric(statistics.median(
            (r.attempted - r.failed) / r.seconds for r in rounds), "1/s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(tracer, untraced, traced):
    n = len(traced)
    items = sum(r.attempted for r in traced)
    calls = {k: v[0] for k, v in tracer.stats.items()}
    out = {}
    for name in tracing.span_names():
        st = tracer.stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = metric(st[0] / n, "count")
        out[f"{name}.s"] = metric(st[1] / n, "s")
        out[f"{name}.self_s"] = metric(st[2] / n, "s")
    counters = tracer.counters
    out.update({
        "elimination.eliminate_calls_per_item": metric(
            calls.get("elimination.eliminate_to_t", 0) / items, "1/item"),
        "realroots.squarefree_calls_per_item": metric(
            (calls.get("realroots.UnivariatePolynomial.squarefree_part", 0)
             + calls.get("realroots.UnivariatePolynomial.is_squarefree", 0)) / items, "1/item"),
        "elimination.shears_per_item": metric(tracer.edges.get(
            ("elimination.count_real_intersections", "resultants.resultant_y"), 0) / items,
            "1/item"),
        "harness.redraws": metric(counters.get("harness.redraws", 0) / n, "count"),
        "resultants.resultant_y.out_degree_max": metric(
            counters.get("resultants.resultant_y.out_degree_max", 0), "degree"),
        "resultants.resultant_y.out_bits_max": metric(
            counters.get("resultants.resultant_y.out_bits_max", 0), "bits"),
        "realroots.dmul.coeff_products": metric(
            counters.get("realroots.dmul.coeff_products", 0) / n, "count"),
        "realroots.dmul.bytes": metric(counters.get("realroots.dmul.bytes", 0) / n, "bytes"),
        "trace.overhead_pct": metric(100 * (statistics.median(r.seconds for r in traced)
                                            / statistics.median(r.seconds for r in untraced) - 1),
                                     "%"),
    })
    return out


def write_spans(tracer, name):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}.jsonl"
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="print one set-up time and exit (used by the main run)")
    args = ap.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_seconds(args.workload, args.seed))
            return 0
        workloads.import_wronski()
    except ImportError as exc:
        print(f"cannot import wronski from this checkout: {exc}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed)
    if args.trace:
        untraced = run_rounds(workload, args.seconds / 2, cls.min_rounds)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced = run_rounds(workload, args.seconds / 2, 1, tracer)
        finally:
            restore()
        rounds = untraced + traced
        metrics = per_layer(tracer, untraced, traced)
        write_spans(tracer, args.workload)
    else:
        rounds = run_rounds(workload, args.seconds, cls.min_rounds)
        metrics = end_to_end(args.workload, args.seed, rounds)
    print(json.dumps({
        "correct": not any(r.rejected for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
