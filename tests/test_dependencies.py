import ast
import sys
from pathlib import Path

import wronski


def test_runtime_imports_only_the_standard_library():
    # relative imports stay inside the package; every absolute one must be stdlib
    outside = []
    for path in sorted(Path(wronski.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_elimination_leaves_lattices_and_contents_to_realroots():
    # exponent lattices and integer contents are applied inside realroots'
    # gcd and squarefree part, so elimination imports none of their kernels
    path = Path(wronski.__file__).parent / "elimination.py"
    kernels = {"dcompress", "dexpand", "dexponent_gcd", "dprimitive"}
    imported = [f"{node.lineno} {alias.name}"
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names if alias.name.split(".")[-1] in kernels]
    assert imported == []


# calls that run when the package is imported, by module: anything else computed
# at import (a prime table, say) is paid in every process's start-up
IMPORT_TIME_CALLS = {
    ("errors.py", "ContextVar"),  # the deadline scope
    ("harness.py", "Fraction"),  # T_ZERO_BAND
    ("realroots.py", "Fraction"),  # min_positive_real_root's default width
    ("__init__.py", "dir"), ("__init__.py", "name.startswith"),  # __all__
    ("cli.py", "sys.exit"), ("cli.py", "main"),  # only under `if __name__ == "__main__"`
}
# the class decorators and field defaults of dataclasses, in any module
DATACLASS_CALLS = {"dataclass", "field"}


def _import_time_calls(tree):
    """The callees of every call that runs when the module is imported.

    That is every call outside the bodies of functions and lambdas: module
    statements, class bodies, decorators and default values.
    """
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            found.add(ast.unparse(node.func))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack += getattr(node, "decorator_list", []) + node.args.defaults
            stack += [d for d in node.args.kw_defaults if d is not None]
        else:
            stack += ast.iter_child_nodes(node)
    return found


def test_import_time_calls_reach_class_bodies_decorators_and_defaults():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    TABLE = prod(range(2, 9))\n"
        "    def m(self, p=primes(128), *, q=lambda r=sieve(): r):\n"
        "        return body()\n"
        "def f(x=lcm(2, 3)):\n"
        "    return g(x)\n")
    assert _import_time_calls(tree) == {"dataclass", "prod", "range", "primes", "sieve", "lcm"}


def test_modules_compute_nothing_at_import():
    found = set()
    for path in sorted(Path(wronski.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {(path.name, callee) for callee in _import_time_calls(tree) - DATACLASS_CALLS}
    assert found <= IMPORT_TIME_CALLS, sorted(found - IMPORT_TIME_CALLS)
