"""Spans around the public functions of wronski's layers, installed from outside.

Nothing under src/ knows about this module.  `install` rebinds each traced
function at run time in every wronski module that holds a reference to it
(and on its class, for methods), so calls made through module globals, such
as `realroots.dgcd` calling `dprem`, are seen too.  The returned callable
restores the original bindings.

A span is (item, id, parent id, name, start, end), kept in memory.  Self time
is a span's duration minus the durations of its direct child spans; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, attribute) of every traced function; a dotted attribute is a method.
TARGETS = (
    ("harness", "monte_carlo_hexagon"),
    ("harness", "meta_report"),
    ("systems", "wronski_from_points"),
    ("systems", "wronski_pair"),
    ("systems", "meta_system"),
    ("polynomial", "Polynomial.substitute"),
    ("elimination", "count_real_intersections"),
    ("elimination", "eliminate_to_t"),
    ("elimination", "certify_no_real_solutions"),
    ("elimination", "boundary_check"),
    ("elimination", "EliminationResult.real_root_candidates"),
    ("resultants", "resultant"),
    ("realroots", "dmul"),
    ("realroots", "ddiv_exact"),
    ("realroots", "dprem"),
    ("realroots", "dgcd"),
    ("realroots", "UnivariatePolynomial.squarefree_part"),
    ("realroots", "UnivariatePolynomial.is_squarefree"),
    ("realroots", "sturm_count"),
    ("realroots", "isolate_real_roots"),
    ("realroots", "refine_interval"),
)


def span_names():
    """Every span name a trace can report, in TARGETS order."""
    out = []
    for mod, attr in TARGETS:
        if attr == "resultant":
            out += ["resultants.resultant_x", "resultants.resultant_y"]
        else:
            out.append(f"{mod}.{attr}")
    return out


def _coeff_bytes(coeffs) -> int:
    return sum((abs(c).bit_length() + 7) // 8 for c in coeffs)


def _coeff_bits(c) -> int:
    num = getattr(c, "numerator", c)
    den = getattr(c, "denominator", 1)
    return max(abs(num).bit_length(), den.bit_length())


class Tracer:
    """In-memory span recorder with per-name call counts and times."""

    def __init__(self):
        self.spans = []
        self.stats = {}  # name -> [calls, inclusive seconds, self seconds]
        self.edges = {}  # (parent name, name) -> calls
        self.counters = {}
        self.item = 0
        self._stack = []  # [span id, name, child seconds]
        self._next_id = 0

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            if parent is not None:
                parent[2] += dur
                edge = (parent[1], name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
            self.spans.append((self.item, frame[0], parent[0] if parent else None,
                               name, start, end))

    def add(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)


def _after_dmul(tracer, args, out):
    a, b = args[0], args[1]
    tracer.add("realroots.dmul.coeff_products", len(a) * len(b))
    tracer.add("realroots.dmul.bytes", _coeff_bytes(a) + _coeff_bytes(b) + _coeff_bytes(out))


def _after_resultant(tracer, args, out):
    if _resultant_name(args, {}) != "resultants.resultant_y":
        return
    tracer.peak("resultants.resultant_y.out_degree_max",
                max((sum(e) for e in out.terms), default=0))
    tracer.peak("resultants.resultant_y.out_bits_max",
                max((_coeff_bits(c) for c in out.terms.values()), default=0))


def _resultant_name(args, kwargs):
    var = args[2] if len(args) > 2 else kwargs["var"]
    return f"resultants.resultant_{var}"


def _wrap(tracer, name, fn, after):
    split = name == "resultants.resultant"  # one span name per eliminated variable

    def traced(*args, **kwargs):
        out = tracer.call(_resultant_name(args, kwargs) if split else name, fn, args, kwargs)
        if after is not None:
            after(tracer, args, out)
        return out
    return traced


_AFTER = {"realroots.dmul": _after_dmul, "resultants.resultant": _after_resultant}


def install(tracer):
    """Rebind every traced function to a recording wrapper; returns the undo."""
    for mod_name, _ in TARGETS:
        importlib.import_module("wronski." + mod_name)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "wronski" or n.startswith("wronski."))]
    undo = []
    for mod_name, attr in TARGETS:
        mod = sys.modules["wronski." + mod_name]
        name = f"{mod_name}.{attr}"
        owner, _, fname = attr.rpartition(".")
        if owner:
            cls = getattr(mod, owner)
            orig = cls.__dict__[fname]
            undo.append((cls, fname, orig))
            setattr(cls, fname, _wrap(tracer, name, orig, _AFTER.get(name)))
            continue
        orig = getattr(mod, fname)
        traced = _wrap(tracer, name, orig, _AFTER.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    undo.append((m, key, orig))
                    setattr(m, key, traced)

    def restore():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
    return restore
