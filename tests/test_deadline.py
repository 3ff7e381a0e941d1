"""The run deadline: one scope, checked in every long loop of the package."""

import ast
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

import wronski
from wronski import deadline, realroots
from wronski.elimination import count_real_intersections
from wronski.errors import check_deadline
from wronski.harness import monte_carlo_hexagon
from wronski.polynomial import Polynomial
from wronski.realroots import UnivariatePolynomial as U
from wronski.resultants import resultant

SOURCES = sorted(Path(wronski.__file__).parent.glob("*.py"))


def past():
    return deadline(time.monotonic() - 1)


def test_nested_scopes_keep_the_earlier_limit_and_restore_the_outer_one(monkeypatch):
    clock = [100.0]
    monkeypatch.setattr(time, "monotonic", lambda: clock[0])
    clock[0] = 1e9
    check_deadline("no scope")  # without a scope nothing is bounded
    clock[0] = 100.0
    with deadline(200):
        with deadline(300):  # a later limit does not extend the outer one
            clock[0] = 250
            with pytest.raises(TimeoutError, match="^inner work exceeded its deadline$"):
                check_deadline("inner work")
            clock[0] = 150
            with deadline(120):  # an earlier one holds inside
                with pytest.raises(TimeoutError):
                    check_deadline("innermost work")
            check_deadline("inner work")  # 200 again
        with pytest.raises(TimeoutError), deadline(120):
            check_deadline("innermost work")
        check_deadline("outer work")  # left by an exception: 200 again
        clock[0] = 250
        with pytest.raises(TimeoutError):
            check_deadline("outer work")
    check_deadline("no scope")


# each entry prepares a call, made under a past scope, whose first check is that site's


def _walk_with_kept_counts(monkeypatch):
    # rank reads the kept Descartes data, so the walk's own check comes first
    p = U([-2, 0, 1]) * U([-3, 0, 1])
    data = realroots._descartes(p)
    monkeypatch.setattr(realroots, "_descartes", lambda p: data)
    return lambda: realroots._isolate(p)


def _count_of_kept_data(monkeypatch):
    p = U([-2, 0, 1])
    realroots.count_real_roots(p)
    return lambda: realroots.count_real_roots(p)


def _refinement(monkeypatch):
    p = U([-2, 0, 1])
    iv = realroots.isolate_real_roots(p)[1]
    return lambda: realroots.refine_interval(p, iv, Q(1, 2 ** 20))


TY = ("t", "y")
SITES = {
    "_gcd_cofactor": lambda mp: lambda: realroots.dgcd([-1, 0, 1], [1, 2, 1]),
    "_real_roots": lambda mp: lambda: realroots._real_roots([-2, 0, 1]),  # one root a side
    "_unit_roots": lambda mp: lambda: realroots._unit_roots([3, -16, 16], 0),  # 1/4 and 3/4
    "_descartes": _count_of_kept_data,
    "_isolate": _walk_with_kept_counts,
    "_bisect": _refinement,
    "_prs_resultant": lambda mp: lambda: resultant(
        Polynomial(TY, {(0, 3): 1, (1, 1): 2, (0, 0): -1}), Polynomial(TY, {(0, 2): 3, (2, 0): 1}),
        "y"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_each_check_site_raises_under_a_past_scope(monkeypatch, site):
    call = SITES[site](monkeypatch)
    with past(), pytest.raises(TimeoutError) as info:
        call()
    assert info.traceback[-2].name == site


def test_the_pair_path_is_bounded():
    XY = ("x", "y")
    f = Polynomial(XY, {(2, 0): 1, (0, 2): 1, (0, 0): -4})
    g = Polynomial(XY, {(1, 0): 1, (0, 1): -1})
    assert count_real_intersections(f, g) == (2, 2)
    with past(), pytest.raises(TimeoutError):
        count_real_intersections(f, g)
    with past(), pytest.raises(TimeoutError):
        monte_carlo_hexagon(1, seed=7)


def test_no_function_takes_a_deadline_and_only_errors_raises_timeouts():
    # the deadline is a scope (errors.deadline), read by errors.check_deadline
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                if "deadline" in names:
                    found.append(f"{path.name}:{node.lineno} takes a deadline")
            elif isinstance(node, ast.Raise) and node.exc is not None and path.name != "errors.py":
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "TimeoutError":
                    found.append(f"{path.name}:{node.lineno} raises TimeoutError")
    assert found == []
