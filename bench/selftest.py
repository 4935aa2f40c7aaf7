"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

For each workload, makes two traced runs (bench/run.py --trace 1) at seed
0, each with a single pair of untraced and traced interpreters.  Passes
when both runs are correct (exit 0), which includes every traced report
being byte-identical to its untraced twin, and when every count metric
(calls, multiply-adds, hit ratios, probe pairs) is identical between them.
"""

from __future__ import annotations

import sys

from record import bench_run
from tracing import is_count
from workloads import WORKLOADS


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        try:
            first, second = (bench_run(workload, 0, 1, 1) for _ in range(2))
        except RuntimeError as exc:  # a traced run failed its gate or crashed
            failures += 1
            print(f"FAIL {workload}: {exc}")
            continue
        counts = sorted(k for k in first["metrics"] if is_count(k))
        differ = [k for k in counts
                  if first["metrics"][k]["value"] != second["metrics"].get(k, {}).get("value")]
        failures += bool(differ)
        print(f"{'FAIL' if differ else 'ok  '} {workload}: {len(counts)} count metrics"
              + (f", differing: {differ}" if differ else ", identical"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
