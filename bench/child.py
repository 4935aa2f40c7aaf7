"""One fresh interpreter of the benchmark, as a `gctwistor verify` user gets.

    python3 bench/child.py '<spec as JSON>'

The spec holds `t0` (the parent's `time.monotonic()` just before it
started this process), `mode` ("setup", "verify" or "trace"), `scenarios`
(a list of [preset name, sample overrides]), `offset` (added to every
preset's default seed) and, in trace mode, `spans` (where to write them).

The process imports gctwistor from the checkout's `src/`, loads the
scenarios and, unless mode is "setup", runs them in order.  It prints one
JSON line: set-up time (process start to scenarios loaded), verify time
(summed `run_scenario` wall time), peak RSS, and for each scenario its
seed, the SHA-256 of its canonical JSON report and its check statuses.

The host-speed control (hostspeed.py) is timed after set-up and between
scenarios; `setup_ref_s` and `verify_ref_s` are the set-up and verify wall
times scaled by the controls on either side of them, and `controls` lists
every control timing.
"""

import json
import os
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    from gctwistor import harness

    if not os.path.abspath(harness.__file__).startswith(src + os.sep):
        print(f"gctwistor imported from {harness.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec["mode"] == "trace":
        import tracing
        tracer = tracing.install()

    scenarios = []
    for preset, overrides in spec["scenarios"]:
        data = json.loads(json.dumps(harness.PRESETS[preset]))
        data["samples"].update(overrides)
        scenarios.append(harness.load_scenario(data, name=preset,
                                               seed=int(data["seed"]) + spec["offset"]))
    setup_s = time.monotonic() - spec["t0"]
    from hostspeed import at_reference_speed, control_s

    controls = [control_s()]
    out = {"setup_s": setup_s,
           "setup_ref_s": at_reference_speed(setup_s, controls[0], controls[0])}
    if spec["mode"] == "setup":
        out["controls"] = controls
        print(json.dumps(out))
        return 0

    reports = []
    verify_s = verify_ref_s = 0.0
    for scenario in scenarios:
        started = time.perf_counter()
        try:
            reports.append(harness.run_scenario(scenario))
        except Exception as exc:  # a raising check counts as a failed scenario run
            reports.append(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - started
        controls.append(control_s())
        verify_s += wall
        verify_ref_s += at_reference_speed(wall, controls[-2], controls[-1])

    import hashlib
    import resource

    out["verify_s"] = verify_s
    out["verify_ref_s"] = verify_ref_s
    out["controls"] = controls
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["scenarios"] = []
    for scenario, report in zip(scenarios, reports):
        entry = {"name": scenario.name, "seed": scenario.seed}
        if isinstance(report, str):
            entry["error"] = report
        else:
            text = harness.emit_report(report, "json")
            entry["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
            entry["statuses"] = [r.status for r in report.results]
        out["scenarios"].append(entry)
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(spec["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
