"""The `wronski` front end: one parser and one dispatcher for argv and `--config`."""

import ast
import csv
import inspect
import io
import json
import textwrap
from fractions import Fraction as Q

import pytest

from wronski import cli
from wronski.harness import (meta_report, monte_carlo_hexagon, pair_experiment,
                             triangulation_report)

PAIR = ["--delta", "3", "--t", "1/2", "--c", "1,2,3", "--cprime", "3,2,1"]

MINIMAL_ARGV = {
    "triangulate": ["triangulate", "--delta", "2"],
    "orient": ["orient", "--delta", "3"],
    "heights": ["heights", "--delta", "2"],
    "meta": ["meta", "--delta", "3"],
    "pair": ["pair", *PAIR],
    "montecarlo": ["montecarlo", "--n", "1", "--seed", "1"],
    "plot": ["plot", *PAIR, "--out", "unused.svg"],
}


def _dispatch_branches():
    """{command: set of `args.<name>` read in its branch of `_dispatch`}."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli._dispatch)))
    branches = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and isinstance(node.test.left, ast.Name) and node.test.left.id == "cmd"):
            reads = {sub.attr for stmt in node.body for sub in ast.walk(stmt)
                     if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                     and sub.value.id == "args"}
            branches[node.test.comparators[0].value] = reads
    return branches


def test_every_option_is_read_by_its_command():
    branches = _dispatch_branches()
    assert set(branches) == set(MINIMAL_ARGV)
    unread = []
    for command, argv in MINIMAL_ARGV.items():
        dests = set(vars(cli.build_parser().parse_args(argv))) - {"command", "config"}
        unread += [f"{command} --{dest}" for dest in sorted(dests - branches[command])]
    assert not unread


def _run(argv, capsys):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("make", [
    lambda: meta_report(3, "rho"),
    lambda: meta_report(3, "rho", scan=(Q(0), Q(2))),
    lambda: pair_experiment(3, "rho", Q("0.98"), (Q("-3.14"), Q("-8.13"), Q("3.61")),
                            (Q("11.13"), Q("-9.34"), Q("1.82"))),
    lambda: monte_carlo_hexagon(3, seed=77, t_range=(Q(-1, 2), Q(1)), c_range=(Q(-5), Q(7))),
    lambda: triangulation_report(3, "min"),
], ids=["meta", "meta-window", "pair", "montecarlo", "triangulate"])
def test_record_config_reruns_to_same_payload(make, tmp_path, capsys):
    rec = make()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(rec.config))
    code, out, _ = _run(["--config", str(path)], capsys)
    assert code == 0
    again = json.loads(out)
    del again["wall_time"]
    assert again == rec.payload_json()


@pytest.mark.parametrize("text", [
    '{"kind": "meta", "delta": 3, "foo": 1}',
    '{"kind": "meta", "delta": 3, "t_range": [0, 1]}',
    '{"kind": "meta"}',
    '{"kind": "pair", "delta": 3}',
    '[1, 2]',
    '{"kind": "montecarlo", "n": 1, "seed": 1, "t_range": ["x", 1]}',
    'not json',
    '{"delta": 3}',
    '{"kind": 3, "delta": 3}',
    '{"kind": "nothing"}',
    '{"kind": "pair", "delta": 3, "t": "1/2", "c": [1, 2, 3], "cprime": [3, 2, 1], "fmt": "xml"}',
    '{"kind": "montecarlo", "n": 1}',
    None,
], ids=["unknown-field", "field-not-taken", "meta-no-delta", "pair-incomplete", "non-object",
        "bad-rational", "not-json", "no-kind", "kind-not-string", "unknown-kind", "bad-fmt",
        "montecarlo-no-seed", "unreadable"])
def test_malformed_config_exits_2(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    code, out, err = _run(["--config", str(path)], capsys)
    assert code == 2 and not out
    assert "error:" in err and "Traceback" not in err


def test_csv_without_results_rows_exits_2(capsys):
    code, out, err = _run(["orient", "--delta", "3", "--format", "csv"], capsys)
    assert code == 2 and not out and "error:" in err


@pytest.mark.parametrize("argv", [["pair", *PAIR], ["meta", "--delta", "3", "--eliminate"]])
def test_csv_has_one_field_per_header_column(argv, capsys):
    code, out, _ = _run([*argv, "--format", "csv"], capsys)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)
    code, out, _ = _run(argv, capsys)
    records = json.loads(out)["results"]
    # a list or dict cell holds its JSON
    for record, row in zip(records, rows):
        for key, cell in zip(header, row):
            if isinstance(record[key], (list, dict)):
                assert json.loads(cell) == record[key]


@pytest.mark.parametrize("flag", [["--refine", "1"], ["--seed", "3"], ["--t0-scan", "0,2"]],
                         ids=["refine", "seed", "t0-scan"])
def test_meta_rejects_elimination_options_without_eliminate(flag, capsys):
    code, out, err = _run(["meta", "--delta", "3", *flag], capsys)
    assert code == 2 and not out
    assert "error:" in err and flag[0] in err and "Traceback" not in err
    code, out, _ = _run(["meta", "--delta", "3", "--eliminate", *flag], capsys)
    assert code == 0 and json.loads(out)["kind"] == "meta"
