"""Every private top-level function or class in src/wronski/ is used in src/.

A helper whose last caller is deleted would otherwise stay behind unnoticed;
its name must appear somewhere in the package besides its own definition.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wronski"


def test_private_helpers_are_referenced():
    sources = {path: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    unreferenced = []
    for path, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if sum(len(word.findall(t)) for t in sources.values()) < 2:  # the def alone
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced
