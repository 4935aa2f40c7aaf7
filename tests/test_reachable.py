"""Every module-level function and class in src/gctwistor has a caller,
and every method of a src/ class runs when the presets do.

ROADMAP item 5's rule: public code that nothing calls is deleted, except a
function or class that defines a paper object and serves a test as an
independent reference.  The scan parses the sources with `ast` and walks
references by name from `cli.main` and from the module-level statements of
every module (the check registry and the presets among them).  A class
counts as one node: reaching it reaches all of its methods' references.
Annotations are not references.  A module-level import binds names, and a
name is reached where a definition refers to it.  A relative
`from .x import y` inside a function body is that function's reference to
y of module x, because the import runs only when the function does.  The
package's `__init__` holds only its docstring, so every name is imported
from the module that defines it.

Methods are checked by running them.  A fresh interpreter sets
`sys.setprofile` before it imports gctwistor, runs every preset with each
sample count set to 1 and emits both report formats.  A method of a
module-level class is reached when its code object ran; a property's
getter and a staticmethod's function count the same way, and dunders are
exempt.  So a dead method is caught also when another class uses its name.

A reference on the allow-list keeps the helpers it reaches.  The list
cannot go stale: a module-level entry must exist and be unreachable
without it, and a method entry must exist and must not run.  Module-level
entries are (module, name) and method entries (module, "Class.method").
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import gctwistor

SRC = Path(gctwistor.__file__).resolve().parent

# (module, name) -> why it stays without a caller in src/
ALLOWED = {
    ("twistor", "twistor_J"): "the twistor structures J_1 and J_2 on a tangent",
    ("twistor", "horizontal_lift"): "the horizontal lift, the reference for the oracle chart's",
    ("twistor", "nijenhuis_horizontal"): "the horizontal-pair case, its coform by a Gram solve",
    ("twistor", "nijenhuis_coform"): "the closed form's coform-pair case",
    ("twistor", "MuForm"): "the curvature form mu, the input of curvature_from_mu",
    ("twistor", "curvature_from_mu"): "R_mu, the reference for the mu constraint rows",
    ("exactmat", "mat_mul"): "the Fraction product the tests hold Endo's arithmetic to",
    ("exactmat", "zeros"): "a Fraction-matrix builder the tests use",
    ("exactmat", "mat_scale"): "a Fraction-matrix builder the tests use",
    ("gclinalg", "Endo.block"): "a structure's blocks: the tests read them, and ROADMAP item 1's type reads vc",
    ("poly", "Jet.grad"): "a jet's gradient as Fractions, which the tests compare",
    ("twistor", "TwistorTangent.scale"): "tangent subtraction goes through it, and the tests scale tangents",
    ("poly", "RationalFn.evaluate"): "bench/tracing.py wraps it by name (ROADMAP item 6)",
}
FUNCTIONS = {entry for entry in ALLOWED if "." not in entry[1]}
METHODS = set(ALLOWED) - FUNCTIONS


class _References(ast.NodeVisitor):
    """The (module, name) definitions a syntax tree refers to, leaving out
    annotations."""

    def __init__(self, names: dict[str, tuple[str, str]], modules: dict[str, str]):
        self.names = names      # local name -> (module, name) it binds
        self.modules = modules  # local alias -> module
        self.found: set[tuple[str, str]] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in self.names:
            self.found.add(self.names[node.id])

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            self.found.add((self.modules[node.value.id], node.attr))
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        pass

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # `_scan` keeps these only inside a definition, not at module level
        if node.level == 1 and node.module is not None:
            self.found.update((node.module, alias.name) for alias in node.names)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def _visit_function(self, node) -> None:
        for child in node.decorator_list + node.args.defaults + node.args.kw_defaults:
            if child is not None:
                self.visit(child)
        for stmt in node.body:
            self.visit(stmt)

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function


def _scan():
    """The module-level definitions, the references of each, and the roots."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    defs = {(module, node.name): node for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    edges: dict[tuple[str, str], set[tuple[str, str]]] = {}
    roots: set[tuple[str, str]] = {("cli", "main")}
    for module, tree in trees.items():
        names = {name: (module, name) for mod, name in defs if mod == module}
        modules = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = (node.module, alias.name)
        for node in tree.body:
            refs = _References(names, modules)
            refs.visit(node)
            key = (module, getattr(node, "name", None))
            if key in defs:
                edges[key] = refs.found
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= refs.found
    return defs, edges, roots


def _reach(edges, start):
    seen, todo = set(), list(start)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(edges.get(key, ()))
    return seen


# Runs every preset at sample counts of 1 under a profiler that records the
# code object of every frame, then prints [module, "Class.method", ran] for
# each non-dunder method of a class defined in a gctwistor module.
_RUN_PRESETS = """
import sys
ran = set()
sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code))
from gctwistor import harness
for name, preset in harness.PRESETS.items():
    data = dict(preset, samples=dict.fromkeys(preset["samples"], 1))
    report = harness.run_scenario(harness.load_scenario(data, name=name))
    for fmt in ("json", "text"):
        harness.emit_report(report, fmt)
sys.setprofile(None)
import importlib, json, pkgutil, gctwistor
methods = []
for info in pkgutil.iter_modules(gctwistor.__path__):
    if info.name == "__main__":
        continue
    module = importlib.import_module("gctwistor." + info.name)
    for cls in vars(module).values():
        if isinstance(cls, type) and cls.__module__ == module.__name__:
            for name, attr in vars(cls).items():
                fn = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if hasattr(fn, "__code__") and not (name.startswith("__") and name.endswith("__")):
                    methods.append([info.name, cls.__name__ + "." + name, fn.__code__ in ran])
print(json.dumps(methods))
"""


@functools.cache
def _method_runs() -> tuple[set, set]:
    """Every (module, "Class.method") of a src/ class, and those that ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _RUN_PRESETS], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    rows = json.loads(result.stdout)
    return {(m, name) for m, name, _ in rows}, {(m, name) for m, name, ran in rows if ran}


def test_every_definition_is_reached_or_allowed():
    defs, edges, roots = _scan()
    reached = _reach(edges, roots | FUNCTIONS)
    unreached = sorted(f"{module}.{name}" for module, name in defs if (module, name) not in reached)
    assert unreached == []


def test_every_method_runs_or_is_allowed():
    methods, ran = _method_runs()
    unreached = sorted(f"{module}.{name}" for module, name in methods - ran - METHODS)
    assert unreached == []


def test_allow_list_is_not_stale():
    defs, edges, roots = _scan()
    methods, ran = _method_runs()
    assert FUNCTIONS <= set(defs) and METHODS <= methods
    stale = [entry for entry in FUNCTIONS if entry in _reach(edges, roots | (FUNCTIONS - {entry}))]
    stale += sorted(METHODS & ran)
    assert stale == []


def test_package_init_holds_only_its_docstring():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree) is not None
