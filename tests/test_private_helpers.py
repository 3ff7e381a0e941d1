"""Every private name defined in src/wronski/ is used in src/.

The names checked are private top-level functions, classes and constants,
and private methods.  A helper whose last caller is deleted would otherwise
stay behind unnoticed; its name must appear somewhere in the package
besides its own definition.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wronski"


def _defined_names(tree):
    """(lineno, name) of each top-level function, class and constant, and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.lineno, item.name


def test_private_helpers_are_referenced():
    sources = {path: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    unreferenced = []
    for path, text in sources.items():
        for lineno, name in _defined_names(ast.parse(text)):
            if not name.startswith("_") or name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if sum(len(word.findall(t)) for t in sources.values()) < 2:  # the def alone
                unreferenced.append(f"{path.name}:{lineno} {name}")
    assert not unreferenced
