"""Command-line front end.

Commands:
  verify  --scenario FILE [--out FILE] [--format json|csv] [--jobs N]
          [--bits] [--slack-tol X] [--timing]
  explain --scenario FILE --trial K [--bits] [--slack-tol X]
  version

Exit codes: 0 success, 1 bound failure, 2 parse error (a scenario file
that is not UTF-8 included), or a file that cannot be read or written, 3
validation error (any ValidationError, ShapeError, ScenarioError or
FixedPointError, which ``main`` maps, a --slack-tol or SUPCHAN_SLACK_TOL
that is not a finite positive number, and a --jobs below 1), 4 a crash:
any other exception (a LinAlgError, a MemoryError, a pool worker that
died), with its traceback on stderr.  Tolerance precedence: --slack-tol
flag > scenario file > SUPCHAN_SLACK_TOL environment variable > built-in
default.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
import traceback

from . import __version__
from . import campaigns as cp
from . import config
from .channels import FixedPointError
from .matkernel import ShapeError, ValidationError

EXIT_OK = 0
EXIT_BOUND_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_VALIDATION_ERROR = 3
EXIT_CRASH = 4

LN2 = math.log(2.0)

# Prefixes of metadata and detail keys holding entropy-like values (nats),
# eligible for bits display.
_ENTROPY_KEYS = ("chi", "mi_", "entropy_", "relent", "tr_", "slack_identity",
                 "sampled_information", "delta_S")
# The lhs, rhs and slack of this family are max-abs matrix residuals, not entropies.
_RESIDUAL_FAMILY = "mmap-consistency"


def _resolve_tols(scenario: cp.Scenario, slack_tol_flag: float | None) -> config.Tolerances:
    """The tolerances by precedence: the defaults, then SUPCHAN_SLACK_TOL,
    then the scenario's ``tolerances``, then ``--slack-tol``; an override
    that is not a finite positive number raises ValueError."""
    tols = config.Tolerances()
    env = os.environ.get("SUPCHAN_SLACK_TOL")
    if env is not None:
        tols = dataclasses.replace(tols, slack_tol=_positive("SUPCHAN_SLACK_TOL", env))
    tols = scenario.tols(tols)
    if slack_tol_flag is not None:
        tols = dataclasses.replace(tols, slack_tol=_positive("--slack-tol", slack_tol_flag))
    return tols


def _positive(name: str, raw: str | float) -> float:
    """``raw`` as a finite positive float, or a ValueError naming ``name``."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name}: expected a finite number, got {raw!r}")
    if value <= 0:
        raise ValueError(f"{name}: expected a positive number, got {raw!r}")
    return value


def _load(args: argparse.Namespace) -> tuple[cp.Scenario, config.Tolerances] | int:
    """The validated scenario and its tolerances, or the exit code after
    reporting why not."""
    try:
        with open(args.scenario, "r", encoding="utf-8-sig") as fh:
            scenario = cp.load_scenario(fh.read())
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (cp.ScenarioParseError, UnicodeDecodeError) as exc:
        print(f"scenario parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except cp.ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    try:
        return scenario, _resolve_tols(scenario, args.slack_tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


def _display(value, bits: bool):
    if bits and isinstance(value, (list, tuple)):
        return [_display(x, True) for x in value]
    if bits and isinstance(value, float) and math.isfinite(value):
        return value / LN2
    return value


def _unit(family: str, bits: bool) -> str:
    return "max-abs" if family == _RESIDUAL_FAMILY else ("bits" if bits else "nats")


def cmd_verify(args: argparse.Namespace) -> int:
    loaded = _load(args)
    if isinstance(loaded, int):
        return loaded
    scenario, tols = loaded
    if args.jobs < 1:
        print(f"error: --jobs: expected an integer >= 1, got {args.jobs}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    t0 = time.monotonic()
    report = cp.run_campaign(scenario, tols, jobs=args.jobs)
    wall = time.monotonic() - t0
    if args.timing:
        report["summary"]["wall_time"] = wall

    text = cp.render_csv(report) if args.format == "csv" else cp.render_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
    else:
        sys.stdout.write(text)

    summary = report["summary"]
    for family in sorted(report["sections"]):
        s = report["sections"][family]["summary"]
        unit = _unit(family, args.bits)
        lo = _display(s["min_slack"], unit == "bits")
        lo_txt = f"{lo:.3e}" if isinstance(lo, float) else "n/a"
        print(
            f"[{family}] trials={s['trials']} passes={s['passes']} "
            f"failures={s['failures']} flagged={s['flagged_infinite']} "
            f"min_slack={lo_txt} {unit}",
            file=sys.stderr,
        )
    print(
        f"total: {summary['passes']}/{summary['trials']} passed, "
        f"{summary['failures']} failed, {summary['flagged_infinite']} flagged "
        f"({wall:.2f} s)",
        file=sys.stderr,
    )
    if summary["failures"] > 0:
        failing = []
        for family in sorted(report["sections"]):
            for rep in report["sections"][family]["reports"]:
                if not rep["passed"] and "indeterminate" not in rep["flags"]:
                    failing.append((family, rep["metadata"].get("trial"), rep["slack"]))
        for family, trial, slack in failing[:20]:
            print(
                f"FAILURE {family} trial={trial} seed={scenario.seed} slack={slack}",
                file=sys.stderr,
            )
        return EXIT_BOUND_FAILURE
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    loaded = _load(args)
    if isinstance(loaded, int):
        return loaded
    scenario, tols = loaded
    if not 0 <= args.trial < scenario.trials:
        print(f"error: trial {args.trial} out of range [0, {scenario.trials})", file=sys.stderr)
        return EXIT_VALIDATION_ERROR

    for family in scenario.families():
        details: dict = {}
        report = cp.evaluate_trial(scenario, family, args.trial, tols, collect=details)
        print(f"== {family} | trial {args.trial} | seed {scenario.seed} ==")
        print(f"passed: {report.passed}   flags: {list(report.flags)}")
        unit = _unit(family, args.bits)
        for label, v in (("lhs", report.lhs), ("rhs", report.rhs), ("slack", report.slack)):
            print(f"{label} ({unit}): {cp.ext_to_json(_display(v, unit == 'bits'))!r}")
        print(f"tolerance: {report.tolerance!r}")
        for k in sorted(report.metadata):
            v = _display(report.metadata[k], args.bits and k.startswith(_ENTROPY_KEYS))
            print(f"metadata.{k}: {cp.jsonable(v)!r}")
        for k in sorted(details):
            v = _display(details[k], args.bits and k.startswith(_ENTROPY_KEYS))
            print(f"{k}: {cp.jsonable(v)!r}")
        print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supchan",
        description="Verify entropy-production bounds for correlated open quantum dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification campaign from a scenario file")
    p_verify.add_argument("--scenario", required=True, help="path to the scenario JSON file")
    p_verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="processes that run the trials, this one among them (default: 1)")
    p_verify.add_argument("--bits", action="store_true", help="display entropies in bits")
    p_verify.add_argument("--slack-tol", type=float, default=None, help="override the slack tolerance")
    p_verify.add_argument("--timing", action="store_true",
                          help="include wall_time in the report (breaks byte-reproducibility)")

    p_explain = sub.add_parser("explain", help="dump every intermediate quantity of one trial")
    p_explain.add_argument("--scenario", required=True)
    p_explain.add_argument("--trial", type=int, required=True)
    p_explain.add_argument("--bits", action="store_true")
    p_explain.add_argument("--slack-tol", type=float, default=None)

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return EXIT_OK
    try:
        return cmd_verify(args) if args.command == "verify" else cmd_explain(args)
    except (ValidationError, ShapeError, cp.ScenarioError, FixedPointError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
