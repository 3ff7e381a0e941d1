import json
import time
import zlib
from fractions import Fraction as Q

import pytest

from wronski import deadline
from wronski.cli import main as cli_main
from wronski.errors import DomainError
from wronski.harness import (ExperimentConfig, RunRecord, meta_report, monte_carlo_hexagon,
                             pair_experiment, resolve_height, triangulation_report)
from wronski.heights import HeightFunction, minimal_height
from wronski.plotting import marching_squares, plot_pair
from wronski.polynomial import Polynomial

from planted import from_roots

XY = ("x", "y")


def test_monte_carlo_deterministic_and_clean():
    a = monte_carlo_hexagon(30, seed=123456789)
    b = monte_carlo_hexagon(30, seed=123456789)
    assert a.payload_json() == b.payload_json()
    counts = {r["count"] for r in a.results}
    assert counts <= {2, 6}
    assert all(r["total"] == 6 for r in a.results)
    assert sum(a.aggregate["histogram"].values()) == 30
    for side in ("neg", "pos"):
        assert set(a.aggregate["by_t_sign"][side]) <= {"2", "6"}


def test_monte_carlo_seed_changes_results():
    a = monte_carlo_hexagon(10, seed=1)
    b = monte_carlo_hexagon(10, seed=2)
    assert a.results != b.results


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig("montecarlo", n=10).validate()  # stochastic without seed
    with pytest.raises(DomainError):
        ExperimentConfig("pair", n=0).validate()
    with pytest.raises(DomainError):
        ExperimentConfig("nothing").validate()
    with pytest.raises(DomainError):
        ExperimentConfig("pair", t_range=(Q(1), Q(1))).validate()


def test_run_record_roundtrip(tmp_path):
    rec = monte_carlo_hexagon(3, seed=42)
    path = tmp_path / "run.json"
    rec.write(str(path))
    loaded = json.loads(path.read_text())
    assert loaded["kind"] == "montecarlo"
    assert len(loaded["results"]) == 3
    assert loaded["version"]


def test_resolve_height_variants(tmp_path):
    assert resolve_height("rho", 3).values == HeightFunction.rho(3).values
    assert resolve_height("min", 4).values == minimal_height(4).values
    path = tmp_path / "h.json"
    path.write_text(json.dumps(minimal_height(2).to_json()))
    assert resolve_height(str(path), 2).values == {
        p: Q(v) for p, v in minimal_height(2).values.items()}


def test_pair_experiment_record():
    rec = pair_experiment(3, "rho", Q("0.98"), (Q("-3.14"), Q("-8.13"), Q("3.61")),
                          (Q("11.13"), Q("-9.34"), Q("1.82")))
    r = rec.results[0]
    assert r["real_intersections"] == 3
    assert r["total_with_multiplicity"] == 9
    assert r["signature"] == 3
    assert r["orientable"] is True
    assert r["meets_signature_bound"] is True
    assert r["height_in_cone"] is True


def test_meta_report_delta3():
    rec = meta_report(3, "rho")
    r = rec.results[0]
    assert r["elimination"]["degree_squarefree"] == 6
    assert r["real_roots_in_window"] == []
    assert r["no_real_solutions_nonzero_t"]["certified"] is True
    assert r["min_positive_root"] is None
    strata = {b["stratum"]: b["status"] for b in r["boundary"]}
    assert strata["x=y=0"] == "infeasible"


@pytest.mark.parametrize("delta, height, crc", [
    (3, "rho", 3247939955), (3, "min", 4179280097),
    (4, "rho", 2194189387), (4, "min", 2421188072),
])
def test_meta_report_payload_pinned(delta, height, crc):
    # CRC32 of the sorted-key JSON payload, frozen from an earlier exact run
    payload = meta_report(delta, height, refine=2).payload_json()
    assert zlib.crc32(json.dumps(payload, sort_keys=True).encode()) == crc


def test_meta_report_forwards_its_deadline_past_the_elimination(expire_after):
    # the clock runs out right after the elimination, so only the root
    # isolation of the report can notice it
    from wronski import harness

    with deadline(time.monotonic() - 1), pytest.raises(TimeoutError):
        meta_report(3, "rho")
    expire_after(harness, "eliminate_to_t")
    with deadline(time.monotonic() + 600), pytest.raises(TimeoutError) as info:
        meta_report(3, "rho")
    assert "real_root_candidates" in [entry.name for entry in info.traceback]


def test_meta_report_forwards_its_deadline_to_the_boundary_strata(expire_after):
    from wronski import harness

    expire_after(harness, "certify_elimination")
    with deadline(time.monotonic() + 600), pytest.raises(TimeoutError) as info:
        meta_report(3, "rho")
    assert "boundary_check" in [entry.name for entry in info.traceback]


def test_meta_report_isolates_each_polynomial_once(monkeypatch):
    # keyed by coefficients: at delta 4 under rho the strata x = 0 and y = 0
    # eliminate to the same gcd
    from wronski import realroots

    seen = []
    isolate = realroots._isolate

    def counted(p):
        seen.append(tuple(p.coeffs))
        return isolate(p)

    monkeypatch.setattr(realroots, "_isolate", counted)
    for delta, height, refine in ((3, "min", 0), (4, "rho", 2)):
        seen.clear()
        meta_report(delta, height, refine=refine)
        assert seen and len(set(seen)) == len(seen), (delta, height)


def test_meta_report_refines_each_candidate_once(monkeypatch):
    # the nonzero candidates and the positive ones share their refinements:
    # at delta 5 under rho two intervals are refined, each once
    from wronski import realroots

    refined = []
    bisect = realroots._bisect

    def counted(sf, lo, hi, done, what):
        if what == "interval refinement":
            refined.append((lo, hi))
        return bisect(sf, lo, hi, done, what)

    monkeypatch.setattr(realroots, "_bisect", counted)
    meta_report(5, "rho")
    assert len(refined) == len(set(refined)) == 2


def test_meta_report_min_positive_root_is_the_first_positive_candidate(monkeypatch):
    # E = (2t - 1)(2t - 3) is isolated as (0, 3/4) and the exact point 3/2,
    # t^4 - 7t^2 + 6t as (-4, -2) and the exact points 0, 1 and 2; the
    # stripped power of t adds the candidate t = 0
    from wronski import harness
    from wronski.elimination import EliminationResult
    from wronski.realroots import IsolatingInterval, isolate_real_roots, min_positive_real_root

    # (E, index of its least positive root's interval, that interval, nonzero roots)
    cases = ((from_roots([Q(1, 2), Q(3, 2)]), 0, (Q(0), Q(3, 4)), 2),
             (from_roots([-3, 0, 1, 2]), 2, (Q(1), Q(1)), 3))
    for E, k, (lo, hi), nonzero in cases:
        assert isolate_real_roots(E)[k] == IsolatingInterval(lo, hi)
        result = EliminationResult(E, E.degree(), 1, (), 0, (0, 0), ())
        monkeypatch.setattr(harness, "eliminate_to_t", lambda *args, **kwargs: result)
        res = meta_report(3, "rho").results[0]
        expected = min_positive_real_root(E)
        assert res["min_positive_root"] == expected.to_json()
        assert res["real_roots_nonzero_t"] == nonzero
        assert lo <= expected.lo and expected.hi <= hi and expected.width() <= Q(1, 10000)


def test_meta_report_even_delta_warns():
    rec = meta_report(2, "rho")
    assert "warning" in rec.results[0]


def test_triangulation_report_values():
    r3 = triangulation_report(3, "rho").results[0]
    assert r3["signature"] == 3 and r3["orientable"] and r3["cone_facets"] == 9
    assert r3["in_cone"] is True
    r4 = triangulation_report(4, "rho").results[0]
    assert r4["orientable"] is False
    r1 = triangulation_report(1).results[0]
    assert r1["signature"] == 1 and r1["cone_facets"] == 0


def test_plot_unit_circle_markers(tmp_path):
    circle = Polynomial(XY, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    diag = Polynomial(XY, {(0, 1): 1, (1, 0): -1})
    out = tmp_path / "circle.svg"
    plot_pair(circle, diag, (Q(-2), Q(2), Q(-2), Q(2)), 64, str(out))
    svg = out.read_text()
    assert svg.count("<circle") == 2
    # markers near (+-sqrt(2)/2, +-sqrt(2)/2): recover math coords from svg attrs
    import re
    pts = [(float(m[0]), float(m[1]))
           for m in re.findall(r'circle cx="([-\d.]+)" cy="([-\d.]+)"', svg)]
    size = 560
    math_pts = sorted((x / size * 4 - 2, 2 - y / size * 4) for x, y in pts)
    assert abs(math_pts[0][0] + 0.7071) < 0.01 and abs(math_pts[0][1] + 0.7071) < 0.01
    assert abs(math_pts[1][0] - 0.7071) < 0.01 and abs(math_pts[1][1] - 0.7071) < 0.01


def test_plot_warns_on_empty_contour(tmp_path):
    far = Polynomial(XY, {(2, 0): 1, (0, 2): 1, (0, 0): -10 ** 6})
    line = Polynomial(XY, {(0, 1): 1, (1, 0): -1})
    out = tmp_path / "empty.svg"
    plot_pair(far, line, (Q(-2), Q(2), Q(-2), Q(2)), 64, str(out))
    svg = out.read_text()
    # the curves meet near (+-707, +-707), outside the window: no marker is drawn
    assert "empty contour" in svg and "<circle" not in svg


def test_plot_resolution_floor(tmp_path):
    c = Polynomial(XY, {(2, 0): 1, (0, 2): 1, (0, 0): -1})
    with pytest.raises(DomainError):
        plot_pair(c, c, (Q(-2), Q(2), Q(-2), Q(2)), 8, str(tmp_path / "x.svg"))


def test_marching_squares_circle_segments():
    import math
    n = 32
    xs = [4 * k / n - 2 for k in range(n + 1)]
    ys = list(xs)
    vals = [[x * x + y * y - 1 for y in ys] for x in xs]
    segs = marching_squares(vals, xs, ys)
    assert len(segs) > 20
    for a, b in segs:
        for p in (a, b):
            assert abs(math.hypot(*p) - 1) < 0.2


def test_cli_triangulate_and_orient(capsys):
    assert cli_main(["triangulate", "--delta", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["points"]) == 6 and len(obj["triangles"]) == 4
    assert cli_main(["orient", "--delta", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["orientable"] is False


def test_cli_domain_error_exit_code(capsys):
    assert cli_main(["triangulate", "--delta", "0"]) == 2
    capsys.readouterr()


def test_cli_heights_check(capsys):
    assert cli_main(["heights", "--delta", "2", "--height", "min", "--check-cone"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["in_cone"] is True


def test_cli_pair_negative_values(capsys):
    rc = cli_main(["pair", "--delta", "3", "--height", "rho", "--t", "0.98",
                   "--c", "-3.14,-8.13,3.61", "--cprime", "11.13,-9.34,1.82"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["results"][0]["real_intersections"] == 3


def test_cli_montecarlo_csv(capsys):
    rc = cli_main(["montecarlo", "--n", "4", "--seed", "9", "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("count,")
    assert len(out) == 5


def test_cli_config_dispatch(tmp_path, capsys):
    cfg = {"kind": "montecarlo", "n": 3, "seed": 77}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["--config", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "montecarlo" and len(obj["results"]) == 3


def test_cli_meta_eliminate(capsys):
    rc = cli_main(["meta", "--delta", "3", "--height", "rho", "--eliminate"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    r = obj["results"][0]
    assert r["elimination"]["degree_squarefree"] == 6
    assert r["no_real_solutions_nonzero_t"]["certified"] is True


def test_plot_curves_marker_counts(tmp_path):
    from wronski.harness import plot_curves

    cubic = tmp_path / "cubic.svg"
    plot_curves(3, "rho", Q("0.98"), (Q("-3.14"), Q("-8.13"), Q("3.61")),
                (Q("11.13"), Q("-9.34"), Q("1.82")), (Q(-2), Q(2), Q(-2), Q(2)),
                64, str(cubic))
    assert cubic.read_text().count("<circle") == 3
    quartic = tmp_path / "quartic.svg"
    plot_curves(4, "rho", Q("0.98"), (Q("0.99"), Q("2.98"), Q("1.95")),
                (Q("14.46"), Q("1.57"), Q("2.21")), (Q(-2), Q(2), Q(-2), Q(2)),
                64, str(quartic))
    assert quartic.read_text().count("<circle") == 0


def test_cli_degenerate_exit_code(capsys):
    # a draw range inside the zero redraw band can never produce a usable t
    rc = cli_main(["montecarlo", "--n", "1", "--seed", "3",
                   "--t-range", "0,0.0000000001"])
    assert rc == 3
    capsys.readouterr()


def test_cli_out_file_atomic(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert cli_main(["triangulate", "--delta", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["points"]
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("argv", [
    ["montecarlo", "--n", "1", "--seed", "1", "--t-range", "1"],
    ["montecarlo", "--n", "1", "--seed", "1", "--c-range", "5,-5"],
    ["meta", "--delta", "3", "--eliminate", "--t0-scan", "1"],
    ["meta", "--delta", "3", "--eliminate", "--t0-scan", "1,0"],
    ["plot", "--delta", "3", "--t", "1/2", "--c", "1,2,3", "--cprime", "3,2,1",
     "--window", "-2,2,2", "--out", "unused.svg"],
    ["plot", "--delta", "3", "--t", "1/2", "--c", "1,2,3", "--cprime", "3,2,1",
     "--window", "-2,2,2,-2", "--out", "unused.svg"],
])
def test_cli_malformed_ranges_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "lo < hi" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("t_range", [1]), ("t_range", [1, 0]), ("c_range", [1, 2, 3]), ("window", [-2, 2, 2]),
])
def test_cli_malformed_config_exit_2(key, value, tmp_path, capsys):
    if key == "window":
        cfg = {"kind": "plot", "delta": 3, "t": "1/2", "c": [1, 2, 3], "cprime": [3, 2, 1],
               "out": str(tmp_path / "unused.svg")}
    else:
        cfg = {"kind": "montecarlo", "n": 1, "seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, key: value}))
    with pytest.raises(SystemExit) as exc:
        cli_main(["--config", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--{key.replace('_', '-')}" in err and "lo < hi" in err
    with pytest.raises(DomainError):
        ExperimentConfig("pair", **{key: tuple(map(Q, value))}).validate()
