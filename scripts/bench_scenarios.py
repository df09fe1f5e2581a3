#!/usr/bin/env python3
"""Latency sweep over the bundled scenarios: repeated plans."""
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from kinoplan.planner import plan_once  # noqa: E402
from kinoplan.scenario_io import parse_scenario  # noqa: E402


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    print(f"{'scenario':<12} {'min':>8} {'mean':>8} {'p95':>8} {'max':>8}   (ms, n={reps})")
    for name in ("scenario1", "scenario2", "scenario3"):
        scenario = parse_scenario(str(ROOT / "scenarios" / f"{name}.json"))
        plan_once(scenario, scenario.obstacles)  # warm-up
        times = []
        for _ in range(reps):
            tic = time.perf_counter()
            plan_once(scenario, scenario.obstacles)
            times.append((time.perf_counter() - tic) * 1000.0)
        print(
            f"{name:<12} {np.min(times):8.2f} {np.mean(times):8.2f} "
            f"{np.percentile(times, 95):8.2f} {np.max(times):8.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
