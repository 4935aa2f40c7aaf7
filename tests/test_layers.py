"""The package's modules form layers, and each imports only from below.

From the bottom: exactmat and value (neither imports the other), poly,
gclinalg, courant, twistor, oracle, harness, cli; the package's
`__init__` and `__main__` sit on top.  Every relative import in a module,
at module level or inside a function, must name a module of a lower
layer, so a helper moved between modules cannot add a back edge.
"""

import ast
from pathlib import Path

import gctwistor

SRC = Path(gctwistor.__file__).resolve().parent

LAYERS = (("exactmat", "value"), ("poly",), ("gclinalg",), ("courant",), ("twistor",),
          ("oracle",), ("harness",), ("cli",), ("__init__", "__main__"))
LEVEL = {module: level for level, group in enumerate(LAYERS) for module in group}


def _relative_imports(path: Path) -> set[str]:
    """The package modules a source file imports relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import exactmat as xm
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == set(LEVEL)


def test_modules_import_only_from_lower_layers():
    back_edges = sorted(f"{path.stem} -> {target}" for path in SRC.glob("*.py")
                        for target in _relative_imports(path)
                        if LEVEL.get(target, len(LAYERS)) >= LEVEL[path.stem])
    assert back_edges == []


def test_the_scan_sees_every_import_form():
    # harness imports oracle by name; oracle uses `from . import exactmat`
    assert {"oracle", "twistor", "exactmat"} <= _relative_imports(SRC / "harness.py")
    assert "exactmat" in _relative_imports(SRC / "oracle.py")
    assert _relative_imports(SRC / "exactmat.py") == set()
