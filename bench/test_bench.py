"""Tests of the benchmark itself: tiny runs, checks that reject bad output, sympy."""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import workloads

workloads.import_wronski()

from wronski.elimination import eliminate_to_t  # noqa: E402
from wronski.lattice import hexagon_example  # noqa: E402
from wronski.polynomial import Polynomial  # noqa: E402
from wronski.realroots import IsolatingInterval  # noqa: E402
from wronski.systems import meta_system_from_points  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [
    workloads.HexagonMC(7, n=4),
    workloads.PairsDelta5(7, k=2, delta=3),
    workloads.MetaDelta4(7, delta=3),
], ids=lambda w: w.name)
def test_workload_runs_clean_at_tiny_size(workload):
    for _ in range(2):
        r = workload.round()
        assert r.attempted > 0 and r.failed == 0 and r.rejected == 0 and r.seconds > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_listed_metric(trace, section, capsys):
    assert run.main(["--workload", "hexagon-mc", "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 100
    assert {m["name"]: m["unit"] for m in SPEC[section]} == {
        k: v["unit"] for k, v in out["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hexagon-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout


def test_an_error_fails_the_item_without_rejecting_it():
    r = workloads.Round()
    assert r.timed(lambda: 1 // 0, items=3) is None
    assert (r.failed, r.rejected) == (3, 0) and r.seconds > 0


def test_hexagon_checks_reject_corrupted_records():
    rec = workloads.HexagonMC(7, n=4).harness.monte_carlo_hexagon(4, seed=7)
    assert checks.hexagon_problems(rec.results, 4) == []
    for field, value in (("count", 4), ("count", 7), ("total", 5)):
        bad = [dict(r) for r in rec.results]
        bad[1][field] = value
        assert len(checks.hexagon_problems(bad, 4)) == 1
    assert len(checks.hexagon_problems(rec.results[:3], 4)) == 4


def test_hexagon_round_rejects_a_changed_payload():
    w = workloads.HexagonMC(7, n=3)
    w.payload = {"results": []}
    r = w.round()
    assert r.failed == r.rejected == 3


def test_pair_check_rejects_wrong_counts():
    assert checks.pair_problem(5, 25, 5) is None
    assert checks.pair_problem(3, 9, 3, expected=3) is None
    assert checks.pair_problem(1, 9, 3, expected=3)
    assert checks.pair_problem(4, 25, 5)
    assert checks.pair_problem(5, 24, 5)
    assert checks.pair_problem(27, 25, 5)


@pytest.fixture(scope="module")
def hexagon_elimination():
    hexa = hexagon_example()
    system = meta_system_from_points(hexa.points, hexa.coloring, hexa.heights)
    result = eliminate_to_t(system, refine=2)
    return system, result, result.real_root_candidates(include_zero=False)


def _problems(result, intervals, system):
    return checks.eliminant_problems(result, intervals, system, random.Random(5))


def test_eliminant_check_accepts_the_hexagon(hexagon_elimination):
    system, result, intervals = hexagon_elimination
    assert len(intervals) == 2
    assert _problems(result, intervals, system) == []


def test_eliminant_check_rejects_corrupted_output(hexagon_elimination):
    system, result, intervals = hexagon_elimination
    E = result.E
    for coeffs in ([2 * c for c in E.coeffs],                       # not primitive
                   [-c for c in E.coeffs],                          # negative leading coefficient
                   [E.coeffs[0], 1] + E.coeffs[2:],                 # roots moved
                   ):
        bad = dataclasses.replace(result, E=type(E).from_int_list(coeffs))
        assert _problems(bad, [], system)
    squared = dataclasses.replace(result, E=E * E)
    assert any("squarefree" in p for p in _problems(squared, [], system))
    shifted = [IsolatingInterval(iv.lo + 3, iv.hi + 3) for iv in intervals]
    assert len(_problems(result, shifted, system)) == 2
    pr = result.projections[0]
    y = Polynomial.variable("y", pr.poly.vars)
    bad_pr = dataclasses.replace(pr, poly=pr.poly + y)
    bad = dataclasses.replace(result, projections=(bad_pr,) + result.projections[1:])
    assert any("x-resultant" in p for p in _problems(bad, [], system))


def _sympy_count(f, g):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x ** e[0] * y ** e[1]
                   for e, c in ((e, Fraction(c)) for e, c in p.terms.items()))

    fe, ge = expr(f), expr(g)
    for s in range(1, 10):
        fs, gs = (sympy.Poly(sympy.expand(p.subs(x, x + s * y)), x, y) for p in (fe, ge))
        if any(p.degree(y) != p.total_degree() for p in (fs, gs)):
            continue
        R = sympy.Poly(sympy.resultant(fs.as_expr(), gs.as_expr(), y), x)
        if R.degree() > 0 and sympy.gcd(R, R.diff(x)).degree() == 0:
            return R.count_roots()
    raise AssertionError("no generic shear found")


def test_pair_counts_match_sympy():
    pytest.importorskip("sympy")
    w = workloads.PairsDelta5(11, k=2, delta=3)
    for k, (polys, delta, _) in enumerate(w.items):
        if delta == 3:
            count, _ = w.elimination.count_real_intersections(*polys, seed=k)
            assert count == _sympy_count(*polys)
