"""Scenario-driven verification suites with machine-readable reports.

A scenario bundles a chart dimension, a torsion-free connection, a seed,
sample counts and a list of named checks.  A check is named once, in the
`_SUITES` table, which pairs it with what it asks of its scenario (an n,
a flat or a curved connection) and with the sample count it reads; the
`Scenario` constructor, and so both `load_scenario` and a scenario built
directly, rejects a scenario that schedules a check it cannot run or
twice, or sets a sample count that no scheduled check reads.  `CHECKS`
maps each name to a plain (scenario, hooks) -> CheckResult function,
and `run_scenario` stamps every result with the key it ran under.  Each
integrability claim has one check that reads `scenario.n`; the
n-specific names that older presets schedule key the same bodies, and
their rows ask for their n only.  A report is a deterministic function
of (scenario, seed): two runs emit byte-identical JSON.  Wall-clock
timings appear in the text rendering only, precisely so the JSON stays
reproducible.

This module holds the engine, the registry and the presets.  Each run
compiles the sources it imports, so the checks of every suite
(`linalg/`, `courant/`, `integrability/` and `oracle/`) live in the
module the suite is named after, whose `CHECKS` dict maps each check's
name after the `/` to its body.  `_SUITES` names the suites, their
checks, what each asks of its scenario and the sample count it reads;
`_REGISTRY` and `CHECKS` are derived from it.  A `Scenario` imports the
module of each suite it schedules, and each entry of `CHECKS` looks its
body up in that module's `CHECKS` when it runs.  So a scenario compiles
no suite it does not schedule: the oracle's compiles `bracket` and
`oracle`, and neither `courant` nor `integrability`.  Nor does it compile
`structures`, the named and seeded structures that the other three
suites build and the oracle does not.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Mapping, Sequence

from .twistor import Connection, connection_from_json, flat_connection
from .value import CheckResult, Value


class ScenarioError(ValueError):
    """The scenario is malformed (unknown check, bad connection, a mode other
    than "exact") or schedules a check it cannot run."""


class Scenario(Value):
    """What `run_scenario` runs.  The constructor rejects, with ScenarioError,
    a scenario whose checks cannot run: a bad name, n, seed or samples, a
    connection for another n, an empty check list, an unknown check, a
    check scheduled twice, a check whose row of `_SUITES` asks for an n
    or a flat or curved connection that it does not have, or a sample
    count that no scheduled check reads.  It imports the module of each
    suite of `_SUITES` that it schedules, so the checks' timings hold no
    import."""

    __slots__ = ("name", "n", "conn", "seed", "samples", "checks")

    def __init__(self, name: str, n: int, conn: Connection, seed: int,
                 samples: Mapping[str, object], checks: tuple[str, ...]):
        if type(name) is not str:
            raise ScenarioError(f"malformed scenario: the name must be a string, got {name!r}")
        if type(n) is not int or n < 1:
            raise ScenarioError(f"malformed scenario: n must be an integer >= 1, got {n!r}")
        if conn.n != n:
            raise ScenarioError(f"the connection is for n = {conn.n}, not {n}")
        if type(seed) is not int:
            raise ScenarioError(f"malformed scenario: the seed must be an integer, got {seed!r}")
        if any(type(c) is not str for c in checks):
            raise ScenarioError(f"checks must be a list of check names, got {checks!r}")
        if not checks:
            raise ScenarioError("malformed scenario: the check list is empty")
        unknown = [c for c in checks if c not in _REGISTRY]
        if unknown:
            raise ScenarioError(f"unknown checks: {unknown}")
        twice = sorted({c for c in checks if checks.count(c) > 1})
        if twice:
            raise ScenarioError(f"checks scheduled more than once: {twice}")
        for check in checks:
            needs = _REGISTRY[check][1]
            lacking = needs and needs(n, conn)
            if lacking:
                raise ScenarioError(f"check {check} needs {lacking}")
        _validate_samples(samples, {_REGISTRY[check][2] for check in checks} - {None})
        for suite in _SUITES:
            if any(check.startswith(suite + "/") for check in checks):
                importlib.import_module(f"{__package__}.{suite}")
        self.name = name
        self.n = n
        self.conn = conn
        self.seed = seed
        self.samples = dict(samples)
        self.checks = checks

    def count(self, key: str, default: int) -> int:
        return int(self.samples.get(key, default))


class Report(Value):
    __slots__ = ("scenario", "seed", "results", "timings")

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "mode": "exact",
            "ok": self.ok,
            "results": [
                {"name": r.name, "status": r.status, "residual": r.residual,
                 "witness": r.witness}
                for r in self.results
            ],
        }


def _needs(n: int | None = None, at_least: int = 1, connection: str | None = None):
    """What a check asks of its scenario: n equal to `n`, or at least
    `at_least`, and a "flat" or "curved" connection when `connection` says
    which.  Returns a function of (n, connection) that names what the
    scenario lacks, or returns None."""
    def lacks(scenario_n: int, conn: Connection) -> str | None:
        if n is not None and scenario_n != n:
            return f"n = {n}, not {scenario_n}"
        if scenario_n < at_least:
            return f"n >= {at_least}, not {scenario_n}"
        if connection is not None and (connection == "flat") != conn.is_flat:
            return f"a {connection} connection"
        return None
    return lacks


_N1 = _needs(n=1)

# suite -> {check name after "suite/": (what it asks of the scenario or None,
# the sample count it reads or None)}; the suite module's CHECKS keys each
# body by that name, and the `Scenario` constructor rejects a scenario that
# schedules a check it cannot run, or sets a sample count no check reads
_SUITES: dict[str, dict[str, tuple[Callable | None, str | None]]] = {
    "integrability": {
        "n1-structure1-vanishes": (_N1, "base_points"),
        "flat-structure1-vanishes": (_needs(at_least=2, connection="flat"), "fibre_params"),
        "curved-witness": (_needs(at_least=2, connection="curved"), "fibre_params"),
        # names the n = 2 and n = 3 presets schedule, kept so their reports stay the same
        "n2-flat-structure1-vanishes": (_needs(n=2, connection="flat"), "fibre_params"),
        "n3-flat-structure1-vanishes": (_needs(n=3, connection="flat"), "fibre_params"),
        "n2-curved-witness": (_needs(n=2, connection="curved"), "fibre_params"),
        "curvature-form-kernel": (_needs(at_least=2), None),
        "mixed-witness": (None, "adapted_points"),
        "hybrid-witness": (None, "adapted_points"),
    },
    "linalg": {"pairing-examples": (_N1, None), "projection-nondegeneracy": (_N1, "base_points"),
               "dim2-orientation": (_N1, "base_points"), "orientation-parity": (_N1, None),
               "skew-frame-relations": (_N1, None), "frame-decomposition-roundtrip": (_N1, None),
               "transform-isometries": (_N1, None), "hyperboloid-chart": (_N1, None)},
    "courant": {"bracket-examples": (_N1, None), "nijenhuis-antisymmetry": (_N1, None),
                "constant-structure-integrable": (_N1, None),
                "b-transform-automorphism": (_N1, None)},
    "oracle": {"closed-form-equality": (_N1, "fibre_params"),
               "structure1-direct-zero": (_N1, "fibre_params"),
               "lift-bracket-identity": (_N1, "fibre_params"),
               "vertical-bracket-identity": (_N1, "fibre_params")},
}


def _suite_check(suite: str, name: str) -> Callable[[Scenario, dict], CheckResult]:
    """The check `suite/name`: the body keyed `name` in its suite module's CHECKS."""
    def check(scenario: Scenario, hooks: Mapping) -> CheckResult:
        return importlib.import_module(f"{__package__}.{suite}").CHECKS[name](scenario, hooks)
    return check


# "suite/name" -> (check, what it asks of the scenario or None, the sample
# count it reads or None), one entry per row of `_SUITES`
_REGISTRY: dict[str, tuple[Callable, Callable | None, str | None]] = {
    f"{suite}/{name}": (_suite_check(suite, name), needs, read)
    for suite, checks in _SUITES.items() for name, (needs, read) in checks.items()}

CHECKS: dict[str, Callable[[Scenario, dict], CheckResult]] = {
    name: check for name, (check, _, _) in _REGISTRY.items()}


# ---------------------------------------------------------------------------
# scenarios, presets, runners


def _gamma_x1_json(n: int) -> dict:
    exps = [0] * (2 * n)
    exps[0] = 1
    return {"1,2,2": [{"exponents": exps, "coeff": "1"}]}


PRESETS: dict[str, dict] = {
    "linalg-all": {
        "n": 1, "connection": {"gamma": {}}, "seed": 1201,
        "samples": {"base_points": 100},
        "checks": ["linalg/pairing-examples", "linalg/projection-nondegeneracy",
                   "linalg/dim2-orientation", "linalg/orientation-parity",
                   "linalg/skew-frame-relations", "linalg/frame-decomposition-roundtrip",
                   "linalg/transform-isometries", "linalg/hyperboloid-chart"],
    },
    "examples-courant": {
        "n": 1, "connection": {"gamma": {}}, "seed": 1202,
        "samples": {},
        "checks": ["courant/bracket-examples", "courant/nijenhuis-antisymmetry",
                   "courant/constant-structure-integrable",
                   "courant/b-transform-automorphism"],
    },
    "thm1-n1": {
        "n": 1, "connection": {"gamma": _gamma_x1_json(1)}, "seed": 1203,
        "samples": {"base_points": 50, "adapted_points": 10},
        "checks": ["integrability/n1-structure1-vanishes", "integrability/mixed-witness",
                   "integrability/hybrid-witness"],
    },
    "thm1-n2-flat": {
        "n": 2, "connection": {"gamma": {}}, "seed": 1204,
        "samples": {"fibre_params": 20, "adapted_points": 5},
        "checks": ["integrability/n2-flat-structure1-vanishes", "integrability/mixed-witness"],
    },
    "thm1-n3-flat": {
        "n": 3, "connection": {"gamma": {}}, "seed": 1207,
        "samples": {"fibre_params": 6, "adapted_points": 4},
        "checks": ["integrability/n3-flat-structure1-vanishes",
                   "integrability/curvature-form-kernel", "integrability/mixed-witness"],
    },
    "thm1-n2-curved": {
        "n": 2, "connection": {"gamma": _gamma_x1_json(2)}, "seed": 1205,
        "samples": {"fibre_params": 20, "adapted_points": 5},
        "checks": ["integrability/n2-curved-witness", "integrability/curvature-form-kernel",
                   "integrability/mixed-witness"],
    },
    "thm1-n4-flat": {
        "n": 4, "connection": {"gamma": {}}, "seed": 1208,
        "samples": {"fibre_params": 4, "adapted_points": 2},
        "checks": ["integrability/flat-structure1-vanishes",
                   "integrability/curvature-form-kernel", "integrability/mixed-witness"],
    },
    "thm1-n4-curved": {
        "n": 4, "connection": {"gamma": _gamma_x1_json(4)}, "seed": 1209,
        "samples": {"fibre_params": 4, "adapted_points": 2},
        "checks": ["integrability/curved-witness", "integrability/curvature-form-kernel",
                   "integrability/mixed-witness"],
    },
    "oracle-n1": {
        "n": 1, "connection": {"gamma": _gamma_x1_json(1)}, "seed": 1206,
        "samples": {"fibre_params": 10},
        "checks": ["oracle/closed-form-equality", "oracle/structure1-direct-zero",
                   "oracle/lift-bracket-identity", "oracle/vertical-bracket-identity"],
    },
}


SCENARIO_KEYS = ("name", "n", "connection", "mode", "seed", "samples", "checks")


def _validate_samples(samples: Mapping[str, object], read: set[str]) -> None:
    """The samples map sample counts that a scheduled check reads to ints
    >= 1, so no check runs over zero samples or a mistyped value, and no
    count is ignored."""
    if not isinstance(samples, Mapping):
        raise ScenarioError(f"malformed scenario: samples must be an object, got {samples!r}")
    for key, value in samples.items():
        if not (key in read and type(value) is int and value >= 1):
            raise ScenarioError(f"bad sample {key}={value!r}: the scheduled checks read "
                                f"{', '.join(sorted(read)) or 'no sample count'}, "
                                f"each an integer >= 1")


def _reject_unknown_keys(data: Mapping, keys: Sequence[str], what: str) -> None:
    """A misspelt key would otherwise leave its field at the default."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; a {what} has only {', '.join(keys)}")


def load_scenario(source: str | Mapping, name: str | None = None,
                  seed: int | None = None) -> Scenario:
    """Build a scenario from a preset name, a JSON file path, or a mapping.
    A "mode" key, if present, must be "exact", the only mode there is."""
    if isinstance(source, str):
        if source in PRESETS:
            data = PRESETS[source]
            name = name or source
        else:
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
                raise ScenarioError(f"cannot load scenario {source!r}: {exc}") from exc
            if not isinstance(data, dict):
                raise ScenarioError(f"malformed scenario: a scenario file holds a JSON object, "
                                    f"got {data!r}")
            name = name or data.get("name", source)
    else:
        data = dict(source)
        name = name or data.get("name", "scenario")
    try:
        _reject_unknown_keys(data, SCENARIO_KEYS, "scenario")
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        conn_data = data.get("connection", {})
        gamma = conn_data.get("gamma", {}) if isinstance(conn_data, Mapping) else None
        if not isinstance(gamma, Mapping):
            raise ValueError(f"the connection must be an object whose gamma is an object, "
                             f"got {conn_data!r}")
        _reject_unknown_keys(conn_data, ("gamma",), "connection")
        conn = connection_from_json(n, gamma) if gamma else flat_connection(n)
        mode = data.get("mode", "exact")
        if mode != "exact":
            raise ValueError(f"unknown mode {mode!r}; every check runs and reports "
                             "in exact arithmetic, so the only mode is 'exact'")
        effective_seed = seed if seed is not None else data.get("seed", 0)
        samples = data.get("samples", {})
        checks = data.get("checks", ())
        if not isinstance(checks, (list, tuple)):
            raise ValueError(f"checks must be a list of check names, got {checks!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    return Scenario(name, n, conn, effective_seed, samples, tuple(checks))


def run_scenario(scenario: Scenario, hooks: Mapping | None = None) -> Report:
    """Run every scheduled check once, in order, returning the report."""
    hook_state = dict(hooks or {})
    results = []
    timings = []
    for check_name in scenario.checks:
        started = time.perf_counter()
        result = CHECKS[check_name](scenario, hook_state)
        results.append(CheckResult(check_name, result.status, result.residual, result.witness))
        timings.append((check_name, time.perf_counter() - started))
    return Report(scenario.name, scenario.seed, tuple(results), tuple(timings))


def emit_report(report: Report, fmt: str = "json", path: str | None = None) -> str:
    """Render a report; JSON is canonical (sorted keys) and timing-free."""
    if fmt == "json":
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    elif fmt == "text":
        lines = [f"scenario {report.scenario}  seed {report.seed}  mode exact"]
        timing = dict(report.timings)
        for r in report.results:
            mark = {"pass": "PASS", "finding": "FIND", "fail": "FAIL"}[r.status]
            extra = "" if r.status == "finding" else f"  residual {r.residual}"
            lines.append(f"[{mark}] {r.name}{extra}  ({timing.get(r.name, 0.0):.2f}s)")
            if r.witness:
                lines.append(f"       witness: {json.dumps(r.witness, sort_keys=True)}")
        good = sum(1 for r in report.results if r.ok)
        lines.append(f"{good}/{len(report.results)} checks satisfied; "
                     + ("OK" if report.ok else "FAILED"))
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
