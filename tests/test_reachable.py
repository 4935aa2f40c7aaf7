"""Every module-level function and class in src/gctwistor has a caller,
and every method's name is read somewhere in src/gctwistor.

ROADMAP item 5's rule: public code that nothing calls is deleted, except a
function or class that defines a paper object and serves a test as an
independent reference.  The scan parses the sources with `ast` and walks
references by name from `cli.main` and from the module-level statements of
every module (the check registry and the presets among them).  A class
counts as one node: reaching it reaches all of its methods' references.
Annotations are not references, and only module-level imports bind names:
a function that imports a caller's target inside its body leaves the
target unreached, so the scan can fail on such an import but never passes
because of one.  The package's `__init__` holds only its docstring, so
every name is imported from the module that defines it.

A method of a module-level class counts as reached when it is a dunder or
when its name is read as an attribute anywhere in src/.  The scan does not
know the receiver's class, so it misses a dead method whose name another
class's method or attribute also uses; a receiver-typed scan would catch
those and is still open.

A reference on the allow-list keeps the helpers it reaches.  The list
cannot go stale: each entry must exist and must be unreachable without it.
Module-level entries are (module, name) and method entries
(module, "Class.method").
"""

import ast
from pathlib import Path

import gctwistor

SRC = Path(gctwistor.__file__).resolve().parent

# (module, name) -> why it stays without a caller in src/
ALLOWED = {
    ("twistor", "twistor_J"): "the twistor structures J_1 and J_2 on a tangent",
    ("twistor", "horizontal_lift"): "the horizontal lift, the reference for the oracle chart's",
    ("twistor", "nijenhuis_closed_form"): "one closed-form pair, the reference for the table",
    ("twistor", "nijenhuis_horizontal"): "the closed form's horizontal-pair case",
    ("twistor", "nijenhuis_coform"): "the closed form's coform-pair case",
    ("twistor", "MuForm"): "the curvature form mu, the input of curvature_from_mu",
    ("twistor", "curvature_from_mu"): "R_mu, the reference for the mu constraint rows",
    ("exactmat", "mat_mul"): "the Fraction product the tests hold Endo's arithmetic to",
    ("exactmat", "zeros"): "a Fraction-matrix builder the tests use",
    ("exactmat", "mat_scale"): "a Fraction-matrix builder the tests use",
    ("gclinalg", "Endo.block"): "a structure's blocks: the tests read them, and ROADMAP item 1's type reads vc",
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


def _methods():
    """The (module, "Class.method") of every method of a module-level class,
    and every attribute name read in src/."""
    methods, read = set(), set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods |= {(path.stem, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return methods, read


def _method_reached(entry, read) -> bool:
    name = entry[1].split(".")[1]
    return name in read or (name.startswith("__") and name.endswith("__"))


def test_every_definition_is_reached_or_allowed():
    defs, edges, roots = _scan()
    reached = _reach(edges, roots | FUNCTIONS)
    unreached = sorted(f"{module}.{name}" for module, name in defs if (module, name) not in reached)
    assert unreached == []


def test_every_method_is_read_or_allowed():
    methods, read = _methods()
    unread = sorted(f"{module}.{name}" for module, name in methods - METHODS
                    if not _method_reached((module, name), read))
    assert unread == []


def test_allow_list_is_not_stale():
    defs, edges, roots = _scan()
    methods, read = _methods()
    assert FUNCTIONS <= set(defs) and METHODS <= methods
    stale = [entry for entry in FUNCTIONS if entry in _reach(edges, roots | (FUNCTIONS - {entry}))]
    stale += [entry for entry in METHODS if _method_reached(entry, read)]
    assert stale == []


def test_package_init_holds_only_its_docstring():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree) is not None
