"""Spans around calls into gctwistor's layers, installed from outside the package.

`install()` replaces every public module-level function of each layer
module, plus the methods listed in METHODS and every check in
`harness.CHECKS`, by a wrapper that records one span per call: name,
start, end (perf_counter nanoseconds) and the index of the enclosing span.
The replacement is rebound wherever a gctwistor module holds the original,
so `from .x import y` copies inside harness, twistor and oracle are traced
too.  Spans stay in memory, in flat integer arrays, until `write()`.

A layer is a module; a span belongs to the layer its name starts with.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable

LAYERS = ("exactmat", "poly", "gclinalg", "courant", "twistor", "oracle", "harness")

# `fr` is the Fraction coercion behind every constructor, ~10^5 calls a run;
# a span per call would mostly measure the tracer.
SKIP = {"exactmat.fr"}

METHODS = {
    "exactmat": ("RowReducer.add", "RowReducer.contains"),
    "poly": ("Poly.jet", "Poly.evaluate", "Poly.partial", "Poly.__add__", "Poly.__sub__",
             "Poly.__mul__", "RationalFn.jet", "RationalFn.evaluate"),
    "gclinalg": ("Endo.compose", "Endo.apply"),
    "courant": ("GACField.jet_at", "GACField.validate_at", "JetSection.at"),
    "twistor": ("Connection.curvature_basis_at", "CurvatureValue.act_on"),
    # _field_matrix is the per-point evaluation behind TwistorChart.field(alpha)
    "oracle": ("TwistorChart.context", "TwistorChart._field_matrix", "TwistorChart.decompose",
               "TwistorChart.compose"),
}

# Memoized calls: the cache key a call presents, as (owner, key).  The
# owner is the object holding the cache; distinct keys are counted per owner.
CACHE_KEYS: dict[str, Callable] = {
    "twistor.Connection.curvature_basis_at": lambda self, p: (self, p.coords),
    "twistor.curvature_action_on_structure":
        lambda conn, at: (conn, (at.point.coords, at.structure.j.rows)),
    "courant.GACField.jet_at": lambda self, p: (self, p.coords),
    "oracle.TwistorChart.context": lambda self, q: (self, q.coords),
}

ELIM = tuple(f"exactmat.{f}" for f in ("det", "rref", "rank", "solve", "nullspace", "inverse",
                                       "RowReducer.add", "RowReducer.contains"))

# (metric, statistic, span names); statistics: calls, self, total, hit
NAMED = (
    ("exactmat.mat_mul.calls", "calls", ("exactmat.mat_mul",)),
    ("exactmat.mat_mul.self_s", "self", ("exactmat.mat_mul",)),
    ("exactmat.mat_vec.calls", "calls", ("exactmat.mat_vec",)),
    ("exactmat.is_zero.calls", "calls", ("exactmat.is_zero",)),
    ("exactmat.elim.calls", "calls", ELIM),
    ("exactmat.elim.self_s", "self", ELIM),
    ("gclinalg.skew_generators.calls", "calls", ("gclinalg.skew_generators",)),
    ("gclinalg.skew_generators.total_s", "total", ("gclinalg.skew_generators",)),
    ("gclinalg.vertical_space_basis.calls", "calls", ("gclinalg.vertical_space_basis",)),
    ("gclinalg.vertical_space_basis.total_s", "total", ("gclinalg.vertical_space_basis",)),
    ("gclinalg.Endo.compose.calls", "calls", ("gclinalg.Endo.compose",)),
    ("twistor.nijenhuis_closed_form.calls", "calls", ("twistor.nijenhuis_closed_form",)),
    ("twistor.nijenhuis_closed_form.total_s", "total", ("twistor.nijenhuis_closed_form",)),
    ("twistor.curvature_basis_at.hit_ratio", "hit", ("twistor.Connection.curvature_basis_at",)),
    ("twistor.curvature_action.hit_ratio", "hit", ("twistor.curvature_action_on_structure",)),
    ("twistor.mu_forced_zero_check.total_s", "total", ("twistor.mu_forced_zero_check",)),
    ("twistor.sample_adapted_point.total_s", "total", ("twistor.sample_adapted_point",)),
    ("courant.courant_bracket.calls", "calls", ("courant.courant_bracket",)),
    ("courant.courant_bracket.total_s", "total", ("courant.courant_bracket",)),
    ("courant.nijenhuis.calls", "calls", ("courant.nijenhuis",)),
    ("courant.nijenhuis.total_s", "total", ("courant.nijenhuis",)),
    ("courant.validate_at.calls", "calls", ("courant.GACField.validate_at",)),
    ("courant.jet_at.hit_ratio", "hit", ("courant.GACField.jet_at",)),
    ("oracle.context.calls", "calls", ("oracle.TwistorChart.context",)),
    ("oracle.context.hit_ratio", "hit", ("oracle.TwistorChart.context",)),
    ("oracle.field.total_s", "total", ("oracle.TwistorChart._field_matrix",)),
    ("poly.jet.calls", "calls", ("poly.Poly.jet",)),
)

UNITS = {"calls": "count", "self": "s", "total": "s", "hit": "ratio"}

# Every check the workloads schedule gets a metric on every workload, zero
# where it does not run, so that each traced run reports the same set.
CHECKS = (
    "linalg/pairing-examples", "linalg/projection-nondegeneracy", "linalg/dim2-orientation",
    "linalg/orientation-parity", "linalg/skew-frame-relations",
    "linalg/frame-decomposition-roundtrip", "linalg/transform-isometries",
    "linalg/hyperboloid-chart", "courant/bracket-examples", "courant/nijenhuis-antisymmetry",
    "courant/constant-structure-integrable", "courant/b-transform-automorphism",
    "integrability/n1-structure1-vanishes", "integrability/n2-flat-structure1-vanishes",
    "integrability/n2-curved-witness", "integrability/curvature-form-kernel",
    "integrability/mixed-witness", "integrability/hybrid-witness",
    "oracle/closed-form-equality", "oracle/structure1-direct-zero",
    "oracle/lift-bracket-identity", "oracle/vertical-bracket-identity",
)


def check_metric(check: str) -> str:
    return "harness.check_s." + check.replace("/", ".")


def is_count(metric: str) -> bool:
    """Metrics that must repeat exactly for the same inputs."""
    return metric.endswith((".calls", ".madds", ".hit_ratio")) or metric == "harness.probe_pairs"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.madds = 0
        self.keys: dict[str, set] = {}
        self._owners: dict[int, object] = {}  # keeps cache owners alive, so id() stays unique

    def wrap(self, fn: Callable, name: str) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        span_name, start, end, parent, stack = (self.span_name, self.start, self.end,
                                                self.parent, self._stack)
        clock = time.perf_counter_ns
        observe = self._observer(name)

        def traced(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _observer(self, name: str) -> Callable | None:
        if name == "exactmat.mat_mul":
            def count_madds(a, b):
                self.madds += len(a) * len(b) * (len(b[0]) if b else 0)
            return count_madds
        key_of = CACHE_KEYS.get(name)
        if key_of is None:
            return None
        keys = self.keys.setdefault(name, set())
        owners = self._owners

        def record_key(*args):
            owner, key = key_of(*args)
            owners[id(owner)] = owner
            keys.add((id(owner), key))
        return record_key

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric, as {name: {"value", "unit"}}."""
        names, span_name, parent = self.names, self.span_name, self.parent
        n = len(span_name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        calls = [0] * len(names)
        self_ns = [0] * len(names)
        for i in range(n):
            calls[span_name[i]] += 1
            self_ns[span_name[i]] += dur[i] - child[i]
        by_name = {name: (calls[k], self_ns[k]) for k, name in enumerate(names)}
        # total time of a name: the outermost spans of that name, so recursion counts once
        wanted = {self._ids[s] for _, stat, spans in NAMED if stat == "total"
                  for s in spans if s in self._ids}
        wanted |= {k for name, k in self._ids.items() if name.startswith("harness.check.")}
        outer_ns = [0] * len(names)
        for i in range(n):
            nid = span_name[i]
            if nid in wanted:
                p = parent[i]
                while p >= 0 and span_name[p] != nid:
                    p = parent[p]
                if p < 0:
                    outer_ns[nid] += dur[i]

        def total_ns(name: str) -> int:
            return outer_ns[self._ids[name]] if name in self._ids else 0

        out: dict[str, dict] = {}
        for layer in LAYERS:
            members = [v for k, v in by_name.items() if k.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = {"value": sum(c for c, _ in members), "unit": "count"}
            out[f"{layer}.self_s"] = {"value": sum(s for _, s in members) / 1e9, "unit": "s"}
        for metric, stat, spans in NAMED:
            c = sum(by_name.get(s, (0, 0))[0] for s in spans)
            if stat == "calls":
                value = c
            elif stat == "self":
                value = sum(by_name.get(s, (0, 0))[1] for s in spans) / 1e9
            elif stat == "total":
                value = sum(total_ns(s) for s in spans) / 1e9
            else:
                distinct = sum(len(self.keys.get(s, ())) for s in spans)
                value = 1 - distinct / c if c else 0.0
            out[metric] = {"value": value, "unit": UNITS[stat]}
        out["exactmat.mat_mul.madds"] = {"value": self.madds, "unit": "count"}
        for check in CHECKS:
            out[check_metric(check)] = {
                "value": total_ns(f"harness.check.{check}") / 1e9, "unit": "s"}
        out["harness.probe_pairs"] = {"value": self._probe_pairs(), "unit": "count"}
        return out

    def _probe_pairs(self) -> int:
        """Nijenhuis evaluations on a probe pair, each pair counted once.

        Direct evaluations (courant.nijenhuis) always count.  A closed-form
        evaluation counts unless the oracle made it as the twin of a direct
        one; a horizontal-case evaluation counts only when a check asked for
        it itself rather than through the closed form.
        """
        ids = self._ids
        direct = ids.get("courant.nijenhuis")
        closed = ids.get("twistor.nijenhuis_closed_form")
        horizontal = ids.get("twistor.nijenhuis_horizontal")
        oracle_ids = {k for name, k in ids.items() if name.startswith("oracle.")}
        check_ids = {k for name, k in ids.items() if name.startswith("harness.check.")}
        count = 0
        for i, nid in enumerate(self.span_name):
            p = self.parent[i]
            caller = self.span_name[p] if p >= 0 else None
            if nid == direct:
                count += 1
            elif nid == closed and caller not in oracle_ids:
                count += 1
            elif nid == horizontal and caller in check_ids:
                count += 1
        return count

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.span_name.tolist(),
                       "start_ns": self.start.tolist(), "end_ns": self.end.tolist(),
                       "parent": self.parent.tolist()}, fh)


def install() -> Tracer:
    """Wrap the layers of the already importable gctwistor package."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"gctwistor.{layer}") for layer in LAYERS}
    replaced: dict[int, Callable] = {}  # id of an original function -> its wrapper
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj)):
                continue
            replaced[id(obj)] = tracer.wrap(obj, name)
        for qualname in METHODS.get(layer, ()):
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], f"{layer}.{qualname}"))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "gctwistor" and not mod_name.startswith("gctwistor."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
    checks = modules["harness"].CHECKS
    for check, fn in list(checks.items()):
        checks[check] = tracer.wrap(fn, f"harness.check.{check}")
    return tracer
