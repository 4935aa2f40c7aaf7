"""Record the benchmark's reference data.

    python3 bench/record.py expected
        Run every workload once at the presets' default seeds and write
        bench/expected.json: per scenario its seed, sample counts, the
        SHA-256 of its canonical JSON report and its check statuses.  Refuses
        to record a failing or raising scenario.

    python3 bench/record.py baseline
        Run bench/run.py untraced once for each of seeds 0-9 and traced once
        at seed 0, on every workload, print each end-to-end metric's median and
        quartile spread next to its bound, and write bench/baseline.json with
        the Python version, commit and seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import BENCH, EXPECTED, ROOT, spawn
from workloads import WORKLOADS

BASELINE = os.path.join(BENCH, "baseline.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SEEDS = list(range(10))


def record_expected() -> int:
    out: dict[str, dict] = {}
    for workload, scenarios in WORKLOADS.items():
        result = spawn("verify", workload, 0)
        out[workload] = {}
        for (preset, overrides), entry in zip(scenarios, result["scenarios"]):
            if "error" in entry or "fail" in entry["statuses"]:
                print(f"refusing to record {workload}/{preset}: {entry}", file=sys.stderr)
                return 1
            out[workload][preset] = {"seed": entry["seed"], "samples": overrides,
                                     "digest": entry["digest"], "statuses": entry["statuses"]}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED}")
    return 0


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def record_baseline() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    out = {"python": platform.python_version(), "commit": commit, "seeds": SEEDS,
           "run_seconds": spec["run_seconds"], "cpus": os.cpu_count(), "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench_run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        end_to_end = {}
        for name in bounds:
            end_to_end[name] = summary([r["metrics"][name]["value"] for r in runs])
            s = end_to_end[name]
            print(f"{workload:24s} {name:12s} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} bound {bounds[name]}")
        traced = bench_run(workload, SEEDS[0], spec["run_seconds"], 1)
        out["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {BASELINE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("expected")
    sub.add_parser("baseline")
    args = parser.parse_args(argv)
    if args.what == "expected":
        return record_expected()
    return record_baseline()


if __name__ == "__main__":
    sys.exit(main())
