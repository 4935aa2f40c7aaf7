"""The package's modules form layers, and each imports only from below.

From the bottom: exactmat and value (neither imports the other), poly,
gclinalg, bracket and structures (neither imports the other), twistor,
then the suite modules linalg, courant, integrability and oracle with
reference (none of the five imports another), harness, cli; the package's `__init__` and `__main__` sit on
top.  Every relative import in a module, at module level or inside a
function, must name a module of a lower layer, so a helper moved between
modules cannot add a back edge.  Harness imports each suite module
through `importlib`, which the scan does not see, so a test checks that
every suite of `harness._SUITES` sits below harness.  `reference` holds
the tests' reference definitions, and no module of the package imports
it.
"""

import ast
from pathlib import Path

import gctwistor
from gctwistor import harness

SRC = Path(gctwistor.__file__).resolve().parent

LAYERS = (("exactmat", "value"), ("poly",), ("gclinalg",), ("bracket", "structures"), ("twistor",),
          ("linalg", "courant", "integrability", "oracle", "reference"), ("harness",), ("cli",),
          ("__init__", "__main__"))
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


def test_no_module_imports_the_references():
    assert [path.stem for path in SRC.glob("*.py")
            if "reference" in _relative_imports(path)] == []


def test_the_scan_sees_every_import_form():
    # oracle uses `from . import exactmat`
    assert "twistor" in _relative_imports(SRC / "harness.py")
    assert "exactmat" in _relative_imports(SRC / "oracle.py")
    assert _relative_imports(SRC / "exactmat.py") == set()
    # harness imports each suite module of `_SUITES` through importlib,
    # which the scan does not see, so each must sit below harness
    assert all(LEVEL[suite] < LEVEL["harness"] for suite in harness._SUITES)
