"""Command-line front door: load a scenario, run its checks, emit a report."""

from __future__ import annotations

import argparse
import sys

from .harness import PRESETS, ScenarioError, emit_report, load_scenario, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gctwistor",
        description="Exact verification suites for generalized complex twistor geometry.")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser(
        "verify",
        help="run a preset or a scenario JSON file",
        description="Presets: " + ", ".join(sorted(PRESETS)))
    verify.add_argument("target", help="preset name or path to a scenario .json file")
    verify.add_argument("--seed", type=int, default=None,
                        help="override the scenario's seed")
    verify.add_argument("--out", default=None, help="also write the report to this path")
    verify.add_argument("--format", dest="fmt", choices=["json", "text"], default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.target, seed=args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_scenario(scenario)
    try:
        text = emit_report(report, args.fmt, args.out)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
