"""The check registry: every check name that the presets or the benchmark's
tracer use is a key of `harness.CHECKS`, and a report names each result by
the key it was scheduled under.  Every method the tracer wraps by name
exists, so deleting one fails here rather than in a traced benchmark run.

The benchmark's sources under bench/ are only read, never imported, so
this test does not depend on what the tracer imports.
"""

import ast
import importlib
from pathlib import Path

import pytest

from gctwistor.harness import CHECKS, PRESETS, SAMPLE_COUNTS, load_scenario, run_scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_constant(name: str):
    """The literal value bench/tracing.py assigns to a module-level name."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py defines no {name}")


def test_traced_checks_are_registered():
    traced = _tracing_constant("CHECKS")
    assert traced and set(traced) <= set(CHECKS)


def test_traced_methods_exist():
    methods = _tracing_constant("METHODS")
    assert methods
    for layer, names in methods.items():
        module = importlib.import_module(f"gctwistor.{layer}")
        for qualname in names:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name, None)
            assert cls is not None and meth in vars(cls), f"{layer}.{qualname}"


def test_scheduled_checks_are_registered():
    for preset in PRESETS.values():
        assert set(preset["checks"]) <= set(CHECKS)


def test_registered_checks_are_callable():
    assert all(callable(check) for check in CHECKS.values())


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_result_names_are_scheduled_names(preset):
    samples = {key: 1 for key in PRESETS[preset]["samples"] if key in SAMPLE_COUNTS}
    scenario = load_scenario({**PRESETS[preset], "samples": samples}, name=preset)
    report = run_scenario(scenario)
    assert [r.name for r in report.results] == list(scenario.checks)
