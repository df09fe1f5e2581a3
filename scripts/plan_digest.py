#!/usr/bin/env python3
"""Print one sha256 per planning input, to check that a change keeps plans exact.

Inputs, one output line each (``<label> <sha256>``):

- ``plan_result_to_dict`` of ``plan_once`` on each bundled scenario;
- ``simulate_run`` on each bundled scenario at seeds 0, 3 and 35, as
  ``trace_to_lines`` records with the timing fields dropped;
- ``plan_once`` on the 64 corridor scenes of perfbench seeds 1 and 2: the
  plan document, or the ``PlanFailure`` reason.

After each of those lines comes a ``seeds <label> <sha256>`` line over the
seed paths of every ``enumerate_seed_paths`` call that the input made:
waypoints, windings and lengths, each float as ``float.hex``. A change to
seed enumeration then shows even where the chosen plan does not move.

Floats enter the plan digests through ``json.dumps``, whose ``repr``
round-trips, so equal digests mean bit-identical plans. The first line is a
``#`` header with the Python and NumPy versions that made the digests.

The committed ledger ``scripts/plan_ledger.txt`` is this script's output.
``--check`` regenerates it and compares line by line:

    python3 scripts/plan_digest.py --check scripts/plan_ledger.txt

It exits 1 and names each input whose line differs, is missing or is new.
A change that moves plans on purpose regenerates the ledger:

    python3 scripts/plan_digest.py > scripts/plan_ledger.txt
"""
import argparse
import hashlib
import json
import pathlib
import platform
import sys
from contextlib import contextmanager

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
import scenes  # noqa: E402
from kinoplan import planner  # noqa: E402
from kinoplan.planner import PlanFailure, plan_once, simulate_run  # noqa: E402
from kinoplan.scenario_io import (  # noqa: E402
    parse_scenario,
    parse_scenario_dict,
    plan_result_to_dict,
    trace_to_lines,
)

BUNDLED = ("scenario1", "scenario2", "scenario3")
SIM_SEEDS = (0, 3, 35)
CORRIDOR_SEEDS = (1, 2)
CORRIDOR_SCENES = 64
TIMING_FIELDS = ("replan_ms", "plan_time_mean_ms", "plan_time_p95_ms")


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def plan_doc(scenario) -> dict:
    try:
        result = plan_once(scenario, scenario.obstacles)
    except PlanFailure as exc:
        return {"failure": exc.reason}
    return plan_result_to_dict(result, scenario, scenario.obstacles)


def trace_doc(scenario, seed: int) -> list:
    records = [json.loads(line) for line in trace_to_lines(simulate_run(scenario, seed=seed))]
    for rec in records:
        for name in TIMING_FIELDS:
            rec.pop(name, None)
    return records


@contextmanager
def recorded_seeds():
    """Collect the seeds of every ``enumerate_seed_paths`` call the planner makes."""
    calls = []
    enumerate_seed_paths = planner.enumerate_seed_paths

    def recording(*args, **kwargs):
        seeds = enumerate_seed_paths(*args, **kwargs)
        calls.append([
            [
                [[float(w.x).hex(), float(w.y).hex()] for w in s.waypoints],
                [w.hex() for w in s.signature.windings],
                s.length.hex(),
            ]
            for s in seeds
        ])
        return seeds

    planner.enumerate_seed_paths = recording
    try:
        yield calls
    finally:
        planner.enumerate_seed_paths = enumerate_seed_paths


def report(label: str, make_doc):
    with recorded_seeds() as seeds:
        doc = make_doc()
    yield f"{label} {digest(doc)}"
    yield f"seeds {label} {digest(seeds)}"


def ledger_lines():
    """The header, then the digest lines, each made as the inputs are planned."""
    yield f"# python {platform.python_version()} numpy {np.__version__}"
    bundled = {name: parse_scenario(str(ROOT / "scenarios" / f"{name}.json")) for name in BUNDLED}
    for name, scenario in bundled.items():
        yield from report(f"plan {name}", lambda: plan_doc(scenario))
    for name, scenario in bundled.items():
        for seed in SIM_SEEDS:
            yield from report(f"simulate {name} seed={seed}", lambda: trace_doc(scenario, seed))
    for seed in CORRIDOR_SEEDS:
        for k, doc in enumerate(scenes.corridor_scenes(seed, CORRIDOR_SCENES)):
            scenario = parse_scenario_dict(doc)
            yield from report(f"corridor seed={seed} scene={k}", lambda: plan_doc(scenario))


def split(line: str) -> tuple[str, str]:
    """A digest line's label and sha256."""
    label, _, sha = line.rpartition(" ")
    return label, sha


def check(path: pathlib.Path) -> int:
    """Compare a fresh ledger with the one at ``path``; 1 if any input differs."""
    header, *rest = path.read_text().splitlines()
    expected = dict(split(line) for line in rest)
    lines = ledger_lines()
    current = next(lines)
    if current != header:
        print(f"note: ledger made with {header[2:]!r}, this run has {current[2:]!r}",
              file=sys.stderr)
    differing = []
    seen = set()
    for line in lines:
        label, sha = split(line)
        seen.add(label)
        if label not in expected:
            differing.append(f"new: {label}")
        elif expected[label] != sha:
            differing.append(f"differs: {label}")
    differing += [f"missing: {label}" for label in expected if label not in seen]
    for line in differing:
        print(line)
    print(f"{path}: {len(seen)} lines checked, {len(differing)} differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="PATH", type=pathlib.Path,
                        help="compare with the ledger at PATH instead of printing")
    args = parser.parse_args()
    if args.check is not None:
        return check(args.check)
    for line in ledger_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
