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
