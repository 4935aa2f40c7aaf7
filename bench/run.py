"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement is a fresh interpreter (bench/child.py), started one at a
time from this process, so imports and module-level memoization are paid as
a `gctwistor verify` user pays them.

Every run starts with a warm-up interpreter (not counted) and one verify
interpreter on fresh inputs: scenario seeds drawn from (workload, N).  That
one is gated but not timed, because input-to-input cost differences (up to
1.9x between seeds on oracle-direct) would swamp any change worth
detecting.  The timed inputs are the presets' default seeds, the inputs
`gctwistor verify` runs, at the sizes set in workloads.py.

Host speed: the shared host this runs on changes speed by up to 2x, in
phases of seconds to minutes.  Every interpreter times the stdlib control of
bench/hostspeed.py after set-up and after each scenario, and reports its
set-up and verify wall times scaled by the adjacent controls to a fixed
reference speed.  Reported set-up and verify times are these scaled times;
the raw wall times go to the run record.

Untraced (--trace 0): iterations until S seconds have passed (at least
three), each a few set-up-only interpreters and one verify interpreter.
Reported: the medians of set-up time (set-up-only interpreters), verify
time and peak RSS, and the share of scenario runs that passed the
correctness gate.

Traced (--trace 1): pairs of one untraced and one traced interpreter until
S seconds have passed (at least one pair), the order alternating from pair
to pair.  Reported: the per-layer metrics of bench/tracing.py (timings as
medians over pairs and scaled like the verify time, counts required to
repeat exactly), the tracing overhead (median over pairs of traced minus
untraced scaled verify time) and
the median control time, `host.ref_loop_s`.  The untraced result holds only
the end-to-end metrics, so there the control time goes to the summary line
before the result and to the run record.

Correctness gate: at a default seed the SHA-256 of each canonical JSON
report must equal the digest in bench/expected.json; at any other seed each
check's status must equal the one recorded there.  A traced report must
also be byte-identical to the untraced one.  Any miss makes the run
incorrect and the exit code 1.

The last line of standard output is the result as one JSON object.  Run
records and the spans of the last traced interpreter go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import is_count
from workloads import WORKLOADS, fresh_offset

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(BENCH, "child.py")
EXPECTED = os.path.join(BENCH, "expected.json")

SETUP_PER_ITERATION = 2
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120
RUN_DEADLINE_S = 170  # a run must end within 180 s, so no interpreter may outlive this


class ChildError(RuntimeError):
    """A benchmark interpreter exited abnormally or printed no result."""


def spawn(mode: str, workload: str, seed_offset: int, spans: str | None = None,
          timeout: float = CHILD_TIMEOUT_S) -> dict:
    if timeout <= 0:
        raise ChildError(f"no time left to start a {mode} interpreter")
    spec = {"mode": mode, "scenarios": WORKLOADS[workload], "offset": seed_offset,
            "spans": spans}
    spec["t0"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} interpreter timed out after {exc.timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{mode} interpreter exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def gate(expected: dict, result: dict) -> list[str]:
    """The scenarios of one interpreter's result that miss the correctness gate."""
    misses = []
    for entry in result["scenarios"]:
        want = expected[entry["name"]]
        if "error" in entry:
            misses.append(f"{entry['name']} seed {entry['seed']}: raised {entry['error']}")
        elif entry["seed"] == want["seed"] and entry["digest"] != want["digest"]:
            misses.append(f"{entry['name']} seed {entry['seed']}: report digest differs")
        elif entry["statuses"] != want["statuses"]:
            misses.append(f"{entry['name']} seed {entry['seed']}: statuses {entry['statuses']}")
    return misses


class Run:
    """Counts and notes of one benchmark run."""

    def __init__(self, workload: str, expected: dict) -> None:
        self.workload = workload
        self.expected = expected
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.refs: list[float] = []

    def has_time_for(self, seconds: float) -> bool:
        """Whether an interpreter that needs `seconds` can end before the deadline."""
        return time.monotonic() + 1.5 * seconds < self.deadline

    def spawn(self, mode: str, seed_offset: int, spans: str | None = None) -> dict:
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        result = spawn(mode, self.workload, seed_offset, spans, timeout)
        self.refs += result["controls"]
        return result

    def measure(self, mode: str, seed_offset: int, spans: str | None = None) -> dict | None:
        """One interpreter on the workload's scenarios, gated; None if it failed."""
        scenarios = len(WORKLOADS[self.workload])
        self.attempted += scenarios
        try:
            result = self.spawn(mode, seed_offset, spans)
        except ChildError as exc:
            self.failed += scenarios
            self.misses.append(str(exc))
            return None
        misses = gate(self.expected, result)
        self.failed += len(misses)
        self.misses += misses
        return result

    def fail(self, note: str) -> None:
        self.failed += 1
        self.misses.append(note)


def run_untraced(run: Run, seconds: int) -> tuple[dict, dict]:
    setups, setups_raw, verify, verify_raw, rss = [], [], [], [], []
    started = last = time.monotonic()
    while ((len(verify) < MIN_ITERATIONS or time.monotonic() - started < seconds)
           and run.has_time_for(time.monotonic() - last)):
        last = time.monotonic()
        for _ in range(SETUP_PER_ITERATION):
            result = run.spawn("setup", 0)
            setups.append(result["setup_ref_s"])
            setups_raw.append(result["setup_s"])
        result = run.measure("verify", 0)
        if result is None:
            break
        verify.append(result["verify_ref_s"])
        verify_raw.append(result["verify_s"])
        rss.append(result["peak_rss_mb"])
    ok = run.attempted - run.failed
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "verify_s": {"value": statistics.median(verify) if verify else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss) if rss else 0.0, "unit": "MB"},
        "ok_ratio": {"value": max(ok, 0) / run.attempted, "unit": "ratio"},
    }
    return metrics, {"setup_s": setups, "setup_wall_s": setups_raw, "verify_s": verify,
                     "verify_wall_s": verify_raw, "peak_rss_mb": rss}


def run_traced(run: Run, seconds: int) -> tuple[dict, dict]:
    spans = os.path.join(OUT, f"spans-{run.workload}.json")
    layers: list[dict] = []
    overhead: list[float] = []
    started = last = time.monotonic()
    while ((not overhead or time.monotonic() - started < seconds)
           and run.has_time_for(time.monotonic() - last)):
        last = time.monotonic()
        if len(overhead) % 2 == 0:
            plain = run.measure("verify", 0)
            traced = plain and run.measure("trace", 0, spans)
        else:
            traced = run.measure("trace", 0, spans)
            plain = traced and run.measure("verify", 0)
        if plain is None or traced is None:
            break
        for a, b in zip(plain["scenarios"], traced["scenarios"]):
            if a.get("digest") != b.get("digest"):
                run.fail(f"{a['name']}: traced report differs from the untraced one")
        # layer timings on the same reference speed as the scaled verify time
        scale = traced["verify_ref_s"] / traced["verify_s"]
        layers.append({name: dict(m, value=m["value"] * scale) if m["unit"] == "s" else m
                       for name, m in traced["layers"].items()})
        overhead.append(traced["verify_ref_s"] - plain["verify_ref_s"])
    metrics = {}
    for name in (layers[0] if layers else {}):
        values = [m[name]["value"] for m in layers]
        if is_count(name):
            if len(set(values)) != 1:
                run.fail(f"count metric {name} did not repeat: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": layers[0][name]["unit"]}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(overhead) if overhead else 0.0, "unit": "s"}
    return metrics, {"overhead_s": overhead, "spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gctwistor", "harness.py")):
        print(f"error: no gctwistor sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    os.makedirs(OUT, exist_ok=True)

    run = Run(args.workload, expected)
    try:
        run.spawn("setup", 0)  # warm-up: compiles bytecode, fills the file cache
        fresh = run.measure("verify", fresh_offset(args.workload, args.seed))
        if args.trace:
            metrics, record = run_traced(run, args.seconds)
        else:
            metrics, record = run_untraced(run, args.seconds)
    except ChildError as exc:  # a set-up interpreter failed: no result to report
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ref = statistics.median(run.refs) if run.refs else 0.0
    if args.trace:
        metrics["host.ref_loop_s"] = {"value": ref, "unit": "s"}
    for note in run.misses:
        print(f"gate: {note}", file=sys.stderr)

    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fresh_offset=fresh_offset(args.workload, args.seed),
                  fresh_verify_s=fresh and fresh["verify_s"], ref_loop_s=run.refs,
                  misses=run.misses, metrics=metrics)
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} scenario runs, {run.failed} failed, host.ref_loop_s {ref:.4f}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
