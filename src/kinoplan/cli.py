"""Command-line front end: plan, simulate and render subcommands.

Exit codes: 0 success, 1 I/O or input error, 2 plan failure (and simulation
timeout), 3 collision. Set KINOPLAN_LOG=debug|info|warning|error to adjust
log verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional, Sequence

from .planner import PlanFailure, plan_once, simulate_run
from .scenario_io import (
    ScenarioError,
    parse_scenario,
    plan_result_to_dict,
    trace_to_lines,
)
from .svg_render import render_plan, render_trace

EXIT_OK = 0
EXIT_IO = 1
EXIT_PLAN_FAILURE = 2
EXIT_COLLISION = 3


def _configure_logging() -> None:
    level_name = os.environ.get("KINOPLAN_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_plan(args: argparse.Namespace) -> int:
    scenario = parse_scenario(args.scenario)
    try:
        result = plan_once(scenario, scenario.obstacles)
    except PlanFailure as exc:
        print(f"plan failed: {exc}", file=sys.stderr)
        return EXIT_PLAN_FAILURE
    doc = plan_result_to_dict(result, scenario, scenario.obstacles)
    _write_text(args.output, json.dumps(doc, indent=2) + "\n")
    if args.output is not None:
        print(
            f"planned {result.state_count} states, eta {result.eta:.2f} s, "
            f"plan time {result.plan_time_ms:.2f} ms -> {args.output}"
        )
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = parse_scenario(args.scenario)
    trace = simulate_run(scenario, seed=args.seed)
    _write_text(args.output, "\n".join(trace_to_lines(trace)) + "\n")
    if args.output is not None:
        print(
            f"simulation {trace.status} after {trace.elapsed:.2f} s "
            f"({len(trace.ticks)} ticks) -> {args.output}"
        )
    if trace.status == "reached":
        return EXIT_OK
    if trace.status == "collision":
        return EXIT_COLLISION
    return EXIT_PLAN_FAILURE


def _cmd_render(args: argparse.Namespace) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if not stripped:
        print("render: input file is empty", file=sys.stderr)
        return EXIT_IO
    try:
        try:
            doc = json.loads(stripped)
            records = [doc] if isinstance(doc, dict) else None
        except json.JSONDecodeError:
            records = [json.loads(line) for line in stripped.splitlines()]
        if records is None:
            raise ValueError("expected a JSON object or NDJSON records")
        if len(records) == 1 and records[0].get("type") != "tick":
            svg = render_plan(records[0])
        else:
            svg = render_trace(records)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        print(f"render: malformed input: {exc}", file=sys.stderr)
        return EXIT_IO
    _write_text(args.output, svg)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed for detection noise")

    parser = argparse.ArgumentParser(prog="kinoplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", parents=[common], help="single-shot plan from a scenario file")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", default=None, help="output JSON path (default: stdout)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("simulate", parents=[common], help="closed-loop replanning simulation")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", default=None, help="output NDJSON trace path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("render", parents=[common], help="render a plan or trace file to SVG")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
