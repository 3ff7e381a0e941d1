"""One traced eliminate_to_t(refine=2) of the delta-5 rho meta-system (criterion 9).

    python3 bench/reference_delta5.py

Too long to repeat inside the benchmark (minutes), so it is recorded once in
README.md as a reference figure.  Prints one JSON object: wall seconds, the
degrees of E, and per traced function its calls, inclusive and self seconds.
"""

from __future__ import annotations

import json
from time import perf_counter

import tracing
import workloads


def main():
    workloads.import_wronski()
    from wronski.heights import HeightFunction
    from wronski import elimination, systems
    system = systems.meta_system(5, HeightFunction.rho(5))
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    start = perf_counter()
    try:
        result = elimination.eliminate_to_t(system, refine=2)
    finally:
        restore()
    wall = perf_counter() - start
    print(json.dumps({
        "wall_s": round(wall, 1),
        "degree_raw": result.degree_raw,
        "degree_E": result.E.degree(),
        "refined_degrees": list(result.refined_degrees),
        "counters": tracer.counters,
        "spans": {name: {"calls": st[0], "s": round(st[1], 2), "self_s": round(st[2], 2)}
                  for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1][2])},
    }, indent=1))


if __name__ == "__main__":
    main()
