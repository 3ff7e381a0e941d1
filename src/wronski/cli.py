"""Command line interface.

Exit codes: 0 success, 2 domain error (also argparse failures), 3 degenerate
instance, 4 elimination failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .errors import DegenerateInstanceError, DomainError, EliminationError
from .harness import (ExperimentConfig, check_ranges, meta_report, monte_carlo_hexagon,
                      pair_experiment, plot_curves, resolve_height, triangulation_report)
from .heights import in_secondary_cone
from .lattice import honeycomb_triangulation, load_triangulation, to_json_dict
from .orient import facet_system, orientation_witness, standard_triangle
from .plotting import write_atomic
from .systems import meta_system


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _fraction_list(text: str):
    return tuple(_fraction(part) for part in text.split(","))


def _ranges(pairs: int):
    """argparse type: `pairs` comma-separated lo,hi pairs of rationals, lo < hi in each."""
    def parse(text: str):
        try:
            return check_ranges(_fraction_list(text), "the value", pairs)
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _emit(payload, out: str | None, fmt: str = "json"):
    if fmt == "json":
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = _to_csv(payload)
    if out:
        write_atomic(out, body)
    else:
        sys.stdout.write(body)


def _to_csv(payload) -> str:
    rows = payload.get("results")
    if not rows:
        raise DomainError("--format csv needs a payload with results rows")
    keys = sorted({k for row in rows for k in row})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(keys)
    for row in rows:
        cells = (row.get(k, "") for k in keys)
        writer.writerow([json.dumps(v, sort_keys=True) if isinstance(v, (list, dict)) else str(v)
                         for v in cells])
    return out.getvalue()


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wronski", description=__doc__)
    ap.add_argument("--config", help="JSON experiment config, run as the command line it "
                    "stands for; overrides the subcommand")
    sub = ap.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--out", help="output file (atomic write); stdout otherwise")
        p.add_argument("--format", default="json", choices=["json", "csv"])

    p = sub.add_parser("triangulate", help="honeycomb triangulation as JSON")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--report", action="store_true", help="statistics instead of raw complex")
    p.add_argument("--height", help="rho | min | FILE, for the cone column of --report")
    common(p)

    p = sub.add_parser("orient", help="orientability from facet sign vectors")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--delta", type=int)
    g.add_argument("--polygon", help="triangulation JSON file; its hull is used")
    common(p)

    p = sub.add_parser("heights", help="evaluate a height function, optionally check the cone")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--height", default="rho", help="rho | min | FILE")
    p.add_argument("--check-cone", action="store_true")
    common(p)

    p = sub.add_parser("meta", help="the three color slices; optionally eliminate to t")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--height", default="rho")
    p.add_argument("--eliminate", action="store_true")
    # read by --eliminate alone, so left None when not given (see _dispatch)
    p.add_argument("--refine", type=int, help="refinement rounds (default 2)")
    p.add_argument("--t0-scan", type=_ranges(1), metavar="A,B",
                   help="window for reported real roots (default 0,1)")
    p.add_argument("--seed", type=int, help="shear seed (default 0)")
    common(p)

    p = sub.add_parser("pair", help="one curve pair: build and count real intersections")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--height", default="rho")
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--c", type=_fraction_list, required=True, metavar="a,b,c")
    p.add_argument("--cprime", type=_fraction_list, required=True, metavar="d,e,f")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("montecarlo", help="random hexagon pairs, exact counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t-range", type=_ranges(1), default=(Fraction(-1), Fraction(1)))
    p.add_argument("--c-range", type=_ranges(1), default=(Fraction(-50), Fraction(50)))
    common(p)

    p = sub.add_parser("plot", help="SVG of a curve pair with intersection markers")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--height", default="rho")
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--c", type=_fraction_list, required=True)
    p.add_argument("--cprime", type=_fraction_list, required=True)
    p.add_argument("--window", type=_ranges(2), default=(Fraction(-2), Fraction(2),
                                                             Fraction(-2), Fraction(2)))
    p.add_argument("--resolution", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="SVG file (atomic write)")
    return ap


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "triangulate":
        if args.report:
            rec = triangulation_report(args.delta, args.height)
            _emit(rec.to_json(), args.out, args.format)
        else:
            _emit(to_json_dict(honeycomb_triangulation(args.delta)), args.out, args.format)
    elif cmd == "orient":
        if args.delta is not None:
            fs = facet_system(standard_triangle(args.delta))
        else:
            fs = facet_system(load_triangulation(args.polygon).points)
        witness = orientation_witness(fs)
        _emit({"orientable": witness is not None,
               "witness": list(witness) if witness else None}, args.out, args.format)
    elif cmd == "heights":
        hf = resolve_height(args.height, args.delta)
        payload = {"delta": args.delta, "heights": hf.to_json()}
        if args.check_cone:
            ok, violations = in_secondary_cone(hf)
            payload["in_cone"] = ok
            payload["violations"] = [
                {"kind": v.kind, "anchor": list(v.anchor)} for v in violations]
        _emit(payload, args.out, args.format)
    elif cmd == "meta":
        options = {"refine": args.refine, "seed": args.seed, "scan": args.t0_scan}
        given = {key: value for key, value in options.items() if value is not None}
        if args.eliminate:
            rec = meta_report(args.delta, args.height, **given)
            _emit(rec.to_json(), args.out, args.format)
        elif given:
            flags = ", ".join("--t0-scan" if key == "scan" else f"--{key}" for key in given)
            raise DomainError(f"meta takes {flags} only with --eliminate")
        else:
            system = meta_system(args.delta, resolve_height(args.height, args.delta))
            payload = {"delta": args.delta,
                       "f": [str(f) for f in system.f],
                       "f_terms": [f.to_json() for f in system.f]}
            _emit(payload, args.out, args.format)
    elif cmd == "pair":
        rec = pair_experiment(args.delta, args.height, args.t, args.c, args.cprime,
                              seed=args.seed)
        _emit(rec.to_json(), args.out, args.format)
    elif cmd == "montecarlo":
        rec = monte_carlo_hexagon(args.n, args.seed, args.t_range, args.c_range)
        _emit(rec.to_json(), args.out, args.format)
    elif cmd == "plot":
        plot_curves(args.delta, args.height, args.t, args.c, args.cprime,
                    args.window, args.resolution, args.out, seed=args.seed)
        sys.stdout.write(args.out + "\n")
    else:
        raise DomainError("no command given (see --help)")
    return 0


def _config_argv(obj) -> list:
    """The command line a config object stands for.

    `kind` names the subcommand; every other field f becomes --f=value, with
    underscores as dashes, `fmt` as --format and lists joined by commas.  The
    `=` form keeps negative values attached to their flag.
    """
    argv = [obj["kind"]]
    for key, value in obj.items():
        if key == "kind" or value is None:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        argv.append(f"--{'format' if key == 'fmt' else key.replace('_', '-')}={value}")
    return argv


def _parse_config(ap, path: str):
    """Parse a JSON config as its subcommand's command line.

    A meta config implies --eliminate and a triangulate config --report.  A
    field the subcommand does not take is accepted only at its ExperimentConfig
    default, so the `config` of any run record runs again as it stands.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise DomainError(f"config {path} must be a JSON object with a string kind")
    kind = obj["kind"]
    implied = {"meta": ["--eliminate"], "triangulate": ["--report"]}.get(kind, [])
    args, extra = ap.parse_known_args(_config_argv(obj) + implied)
    defaults = set(_config_argv(ExperimentConfig(kind).to_json()))
    unknown = [flag for flag in extra if flag not in defaults]
    if unknown:
        raise DomainError(f"{kind} does not take {', '.join(unknown)}")
    return args


_VALUE_FLAGS = {"--t", "--c", "--cprime", "--t-range", "--c-range", "--window", "--t0-scan"}


def _glue_negative_values(argv):
    """Join flag and value when the value starts with a minus sign."""
    out = []
    skip = False
    for k, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _VALUE_FLAGS and k + 1 < len(argv) and argv[k + 1].startswith("-") \
                and any(ch.isdigit() for ch in argv[k + 1]):
            out.append(f"{tok}={argv[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(_glue_negative_values(list(argv)))
    try:
        if args.config:
            args = _parse_config(ap, args.config)
        return _dispatch(args)
    except (DomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateInstanceError as exc:
        print(f"degenerate instance: {exc}", file=sys.stderr)
        return 3
    except EliminationError as exc:
        print(f"elimination failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
