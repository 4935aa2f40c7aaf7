"""The check registry: every check name that the presets or the benchmark's
tracer use is a key of `harness.CHECKS`, and a report names each result by
the key it was scheduled under.

The benchmark's sources under bench/ are only read, never imported, so
this test does not depend on what the tracer imports.
"""

import ast
from pathlib import Path

import pytest

from gctwistor.harness import CHECKS, PRESETS, SAMPLE_COUNTS, load_scenario, run_scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_checks() -> tuple[str, ...]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CHECKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no CHECKS tuple")


def test_traced_checks_are_registered():
    traced = _traced_checks()
    assert traced and set(traced) <= set(CHECKS)


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
