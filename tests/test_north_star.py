"""The package is exact and standard-library only: every absolute import
in src/gctwistor names a standard-library module, and no source file
writes a float literal or calls `float`.  The one float is the `0.0`
timing default in `emit_report`'s text rendering, which no check or
JSON report reads.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gctwistor").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert len(SOURCES) >= 10


def test_absolute_imports_are_standard_library():
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"


def _floats(tree: ast.AST) -> list[ast.AST]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"]


def test_no_float_literal_or_float_call():
    found = [(path.name, getattr(top, "name", None), getattr(node, "value", "float("))
             for path in SOURCES for top in _tree(path).body for node in _floats(top)]
    assert found == [("harness.py", "emit_report", 0.0)]
