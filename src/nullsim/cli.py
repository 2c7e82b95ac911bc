"""Command line front end.

Verbs: run a scenario file, sweep its declared grids, reproduce a shipped
preset, or just validate a file.  Exit codes: 0 success, 2 scenario or
argument validation failure, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from .campaign import export_results, run_scenarios, sweep_points
from .presets import PRESET_NAMES, run_repro
from .scenario import ScenarioError, load_scenario, with_overrides

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nullsim",
        description="Interference-null search simulator for duty-cycled coexistence",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run one scenario file")
    run.add_argument("scenario")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--repeats", type=_positive_int, default=1)
    run.add_argument("--out", default=None, help="results file path")
    run.add_argument("--format", choices=("csv", "json"), default="json")

    sweep = sub.add_parser("sweep", help="run the scenario's declared sweep grids")
    sweep.add_argument("scenario")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default="json")

    repro = sub.add_parser("repro", help="rebuild one calibration table")
    repro.add_argument("figure", choices=PRESET_NAMES)
    repro.add_argument("--out", default=None)
    repro.add_argument("--format", choices=("csv", "json"), default="json")

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("scenario")
    return p


def _summarize(records) -> str:
    lines = []
    for r in records:
        lines.append(
            f"run {r.run_id} user {r.user}: mode={r.mode} "
            f"dINR={r.delta_inr_db:.2f} dB (baseline {r.baseline_inr_db:.2f}, "
            f"final {r.final_inr_db:.2f}) nulls={r.nulls_used} "
            f"delay={r.total_delay_ms:.1f} ms"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.verb == "validate":
            load_scenario(args.scenario)
            print(f"{args.scenario}: ok")
            return EXIT_OK

        if args.verb in ("run", "sweep"):
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                scenario = with_overrides(scenario, seed=args.seed)
            if args.verb == "sweep":
                records = run_scenarios(sweep_points(scenario))
            else:
                records = run_scenarios([scenario], args.repeats)
            print(_summarize(records))
            if args.out:
                for f in export_results(records, args.format, args.out):
                    print(f"wrote {f}")
            return EXIT_OK

        if args.verb == "repro":
            records, table = run_repro(args.figure)
            print("\n".join(table))
            if args.out:
                for f in export_results(records, args.format, args.out):
                    print(f"wrote {f}")
            return EXIT_OK
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failures get a distinct code
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
