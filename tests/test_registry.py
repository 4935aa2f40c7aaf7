"""The check registry: every check name that the presets or the benchmark's
tracer use is a key of `harness.CHECKS`, and a report names each result by
the key it was scheduled under.  Every method the tracer wraps by name
exists, every keyword the benchmark's child passes to `load_scenario` is
one of its parameters, and every preset has the keys the child reads, so
a change to any of them fails here rather than in a benchmark run.  The
registry names the one sample count each check reads, and every preset
and benchmark workload sets only counts that its checks read.  Each suite
module's `CHECKS` keys the checks that `harness._SUITES` lists for it.

The benchmark's sources under bench/ are read here, and imported only in a
child interpreter that runs every preset under the installed tracer, so
this test process does not depend on what the tracer imports.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gctwistor import harness
from gctwistor.harness import (
    CHECKS,
    PRESETS,
    Scenario,
    ScenarioError,
    load_scenario,
    run_scenario,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def _child_tree() -> ast.Module:
    return ast.parse((BENCH / "child.py").read_text(encoding="utf-8"))


def test_child_calls_load_scenario_with_its_parameters():
    calls = [node for node in ast.walk(_child_tree()) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "load_scenario"]
    assert calls
    parameters = inspect.signature(load_scenario).parameters
    for call in calls:
        assert {kw.arg for kw in call.keywords} <= set(parameters)
        assert len(call.args) <= len(parameters)


def test_presets_have_the_keys_the_child_reads():
    # the child reads a copy of each preset as `data`: data["samples"], data["seed"]
    read = {node.slice.value for node in ast.walk(_child_tree())
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "data" and isinstance(node.slice, ast.Constant)}
    assert read
    for preset in PRESETS.values():
        assert read <= set(preset)


def test_scheduled_checks_are_registered():
    for preset in PRESETS.values():
        assert set(preset["checks"]) <= set(CHECKS)


def test_registered_checks_are_callable():
    assert all(callable(check) for check in CHECKS.values())


@pytest.mark.parametrize("suite", sorted(harness._SUITES))
def test_suite_modules_key_the_checks_the_harness_lists(suite):
    # a body registered on one side only would be unreachable or a KeyError
    module = importlib.import_module(f"gctwistor.{suite}")
    assert set(module.CHECKS) == set(harness._SUITES[suite])
    assert all(callable(body) for body in module.CHECKS.values())


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_result_names_are_scheduled_names(preset):
    samples = {key: 1 for key in PRESETS[preset]["samples"]}
    scenario = load_scenario({**PRESETS[preset], "samples": samples}, name=preset)
    report = run_scenario(scenario)
    assert [r.name for r in report.results] == list(scenario.checks)


# Installs bench/tracing.py's tracer, runs every preset at sample counts of
# 1 and prints whether all passed and the value of each of the tracer's metrics.
_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
tracer = tracing.install()
from gctwistor import harness
ok = True
for name, preset in harness.PRESETS.items():
    data = dict(preset, samples=dict.fromkeys(preset["samples"], 1))
    ok = harness.run_scenario(harness.load_scenario(data, name=name)).ok and ok
print(json.dumps({"ok": ok, "metrics": {k: v["value"] for k, v in tracer.metrics().items()}}))
"""


def test_traced_presets_pass_and_time_their_checks():
    package_root = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(BENCH)],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["ok"]
    # every traced check that a preset schedules was timed under its wrapper
    scheduled = {check for preset in PRESETS.values() for check in preset["checks"]}
    untimed = [check for check in _tracing_constant("CHECKS") if check in scheduled
               and not out["metrics"]["harness.check_s." + check.replace("/", ".")] > 0]
    assert untimed == []


def _workloads() -> dict:
    """The literal WORKLOADS table of bench/workloads.py."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "WORKLOADS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py defines no WORKLOADS")


def test_workloads_set_only_sample_counts_their_checks_read():
    # the child merges each workload's overrides into the preset's samples
    # and loads the result, which the Scenario constructor would reject
    workloads = _workloads()
    assert workloads
    for scenarios in workloads.values():
        for preset, overrides in scenarios:
            load_scenario({**PRESETS[preset],
                           "samples": {**PRESETS[preset]["samples"], **overrides}})


def _runnable(check: str) -> Scenario:
    """A scenario of the smallest n, flat connection first, that can run the check."""
    for n in (1, 2, 3):
        for gamma in ({}, harness._gamma_x1_json(n)):
            try:
                return load_scenario({"n": n, "connection": {"gamma": gamma}, "checks": [check]})
            except ScenarioError:
                continue
    raise AssertionError(f"no scenario runs {check}")


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_registry_names_the_sample_count_each_check_reads(monkeypatch, check):
    read = []

    def count(self, key, default):
        read.append(key)
        return 1

    monkeypatch.setattr(Scenario, "count", count)
    assert run_scenario(_runnable(check)).ok
    key = harness._REGISTRY[check][2]
    assert set(read) == ({key} if key else set())
