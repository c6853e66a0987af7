"""Command-line entry points: run a scenario, validate one, or recompute
metrics from exported trial logs."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import WorkcellError
from .harness import load_scenario, metrics_from_dir, run_scenario, validate_scenario
from .serialization import json_line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="workcell",
        description="Deterministic workcell planning engine harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--trace", action="store_true",
                       help="print the event trace of each trial")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")

    p_met = sub.add_parser("metrics", help="recompute metrics from a trace dir")
    p_met.add_argument("trace_dir")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            with open(args.scenario) as fh:
                doc = json.load(fh)
            errors = validate_scenario(doc)
            if errors:
                for e in errors:
                    print(f"error: {e}", file=sys.stderr)
                return 1
            print("ok")
            return 0

        if args.command == "run":
            spec = load_scenario(args.scenario)
            if args.seed is not None:
                spec.doc["seed"] = args.seed
            report, logs = run_scenario(spec, out_dir=args.out, trials=args.trials)
            if args.trace:
                for log in logs:
                    for event in log["trace"]:
                        print(json_line(event))
            print(report.table())
            print(json_line(report.to_dict()))
            return 0

        if args.command == "metrics":
            report = metrics_from_dir(args.trace_dir)
            print(report.table())
            print(json_line(report.to_dict()))
            return 0
    except (WorkcellError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
