#!/usr/bin/env python3
"""kinoplan benchmark: plan latency, the 4 Hz replan budget and plan quality.

Run from the repository root, for example:

    python3 perfbench/run.py --workload plan_corridor --seed 1 --seconds 50 --trace 0

Workloads are closed loops: one caller, and each call waits for the previous
one. Everything runs in this one process and thread.

  plan_corridor  plan_once on six-obstacle corridor scenes made from --seed
  closed_loop    simulate_run on scenarios/scenario1..3.json, detection noise from --seed

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` rebuilds every
plan from kinoplan's public layer calls with a span around each call and
reports per-layer metrics; it writes its spans to perfbench/out/.

Standard output holds a metric table, then, on the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 when every correctness check held, 1 when one failed and 2 when there is no
kinoplan source tree to measure.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import random
import resource
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import measure
import scenes
from tracing import Tracer, traced_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = HERE / "out"

WORKLOADS = ("plan_corridor", "closed_loop")
SETUP_REPS = 4             # set-ups before and again after measuring
CORRIDOR_SCENES = 64       # the traced run plans each twice, so it takes the first half
SIMS_PER_SCENARIO = 3      # closed_loop noise draws per bundled scenario
SIM_PROBE_S = 5.0          # simulator horizon in plan_corridor's traced run
REPEAT_CHECKS = 4          # plans made again after measuring, to check they repeat
KERNEL_CALLS = 20          # timed calls per kernel and chosen trajectory
KERNEL_TRAJECTORIES = 16   # chosen trajectories the kernels are timed on


now = time.perf_counter


# --------------------------------------------------------------------------
# Set-up: import, parse, first plan


def load_kinoplan():
    """Import kinoplan afresh from the source tree, so set-up can be repeated."""
    for name in [n for n in sys.modules if n == "kinoplan" or n.startswith("kinoplan.")]:
        del sys.modules[name]
    kp = importlib.import_module("kinoplan")
    importlib.import_module("kinoplan.scenario_io")
    if Path(kp.__file__).resolve().parent != (SRC / "kinoplan").resolve():
        raise RuntimeError(f"kinoplan imported from {kp.__file__}, not from {SRC}")
    return kp


def parse_inputs(kp, workload: str, docs: list[dict]):
    """The workload's scenarios, and scenario1, which every set-up plans first."""
    io = kp.scenario_io
    if workload == "plan_corridor":
        inputs = [io.parse_scenario_dict(doc) for doc in docs]
        return inputs, io.parse_scenario(str(SCENARIOS / "scenario1.json"))
    inputs = [io.parse_scenario(str(SCENARIOS / f"{name}.json")) for name in scenes.BUNDLED]
    return inputs, inputs[0]


def set_up(workload: str, docs: list[dict], setup_s: list, parse_ms: list):
    """Import through the first, cold plan, ``SETUP_REPS`` times.

    The cold plan is on scenario1 for every workload, so that set-up time
    does not depend on the seed. The run goes on with the last import.
    """
    for _ in range(SETUP_REPS):
        t0 = now()
        kp = load_kinoplan()
        t1 = now()
        inputs, first = parse_inputs(kp, workload, docs)
        t2 = now()
        kp.plan_once(first, first.obstacles)
        setup_s.append(now() - t0)
        parse_ms.append((t2 - t1) * 1000.0)
    return kp, inputs, first


# --------------------------------------------------------------------------
# Checks on outputs


@dataclasses.dataclass
class PlanCheck:
    """What the benchmark's own sweep finds on one chosen plan."""

    cost: float
    eta: float
    clearance: float
    limit: float

    @property
    def collides(self) -> bool:
        return self.clearance <= 0.0


def check_plan(result, scenario, obstacles) -> PlanCheck:
    traj = result.chosen
    p, dts = traj.positions(), traj.durations()
    v_peak, a_peak = measure.peak_speed_accel(p, dts)
    return PlanCheck(
        cost=result.candidates[result.chosen_index].final_cost,
        eta=result.eta,
        clearance=measure.clearance(p, dts, obstacles, scenario.margin),
        limit=measure.limit_ratio(v_peak, a_peak, scenario.limits.v_max, scenario.limits.a_max),
    )


def plan_digest(kp, result, scenario, obstacles) -> str:
    """Plan JSON for the determinism check, or the failure reason."""
    if isinstance(result, kp.PlanFailure):
        return "PlanFailure:" + result.reason
    return json.dumps(kp.scenario_io.plan_result_to_dict(result, scenario, obstacles))


def check_repeats(kp, tally, label: str, scenario, obstacles, start, result) -> None:
    """Planning the same input again must give byte-identical plan JSON."""
    try:
        again = kp.plan_once(scenario, obstacles, start=start)
    except kp.PlanFailure as exc:
        again = exc
    tally.require(
        plan_digest(kp, again, scenario, obstacles) == plan_digest(kp, result, scenario, obstacles),
        f"{label}: repeated plans differ",
    )


@contextmanager
def recording_plans(kp):
    """Record every ``plan_once`` call that ``simulate_run`` makes, with its wall time."""
    planner = kp.planner
    original = planner.plan_once
    calls = []

    def recorded(scenario, obstacles, *args, **kwargs):
        t0 = now()
        try:
            result = original(scenario, obstacles, *args, **kwargs)
        except planner.PlanFailure as exc:
            calls.append((obstacles, kwargs.get("start"), exc, (now() - t0) * 1000.0))
            raise
        calls.append((obstacles, kwargs.get("start"), result, (now() - t0) * 1000.0))
        return result

    planner.plan_once = recorded
    try:
        yield calls
    finally:
        planner.plan_once = original


class Tally:
    """Operations attempted and failed, plus correctness problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def require(self, condition: bool, problem: str) -> None:
        if not condition and problem not in self.problems:
            self.problems.append(problem)


def plan_quality(checks: list[PlanCheck], distinct: int, failed: int) -> dict:
    """Quality metrics over the distinct inputs' chosen plans."""
    if not checks:
        raise RuntimeError("no input produced a plan")
    n = len(checks)
    costs = [c.cost for c in checks]
    limits = [c.limit for c in checks]
    clearances = [c.clearance for c in checks]
    return {
        "plan_cost": (statistics.fmean(costs), "cost", n),
        "plan_cost_p50": (measure.percentile(costs, 50), "cost", n),
        "arrival_s": (statistics.fmean(c.eta for c in checks), "s", n),
        "limit_excess": (max(0.0, max(limits) - 1.0), "ratio", n),
        "limit_ratio_p50": (measure.percentile(limits, 50), "ratio", n),
        "min_clearance_m": (min(clearances), "m", n),
        "clearance_m_p50": (measure.percentile(clearances, 50), "m", n),
        "fail_ratio": (measure.ratio(failed, distinct), "ratio", distinct),
        "ok_ratio": (1.0 - measure.ratio(failed, distinct), "ratio", distinct),
    }


def passes(count: int, seconds: float):
    """Input indices in whole passes over ``count`` inputs, for about ``seconds``.

    Whole passes keep every input's share of the samples equal, whatever the
    host speed. A run makes at least one pass, and starts another only while
    one more pass, as long as the last, still ends within ``seconds``.
    """
    deadline = now() + seconds
    while True:
        start = now()
        yield from range(count)
        if 2 * now() - start > deadline:
            return


# --------------------------------------------------------------------------
# End-to-end runs (tracing off)


def run_plans(kp, inputs, seconds: float, tally: Tally) -> dict:
    """``plan_once`` on each input in turn, in whole passes, for about ``seconds``."""
    times, first, repeat = [], {}, []
    completed = 0
    for k in passes(len(inputs), seconds):
        scenario = inputs[k]
        t0 = now()
        try:
            result = kp.plan_once(scenario, scenario.obstacles)
        except kp.PlanFailure as exc:
            result = exc
        times.append((now() - t0) * 1000.0)
        if k not in first:
            first[k] = None if isinstance(result, kp.PlanFailure) else check_plan(
                result, scenario, scenario.obstacles
            )
            if k < REPEAT_CHECKS:
                repeat.append((k, result))
        tally.attempted += 1
        tally.failed += first[k] is None or first[k].collides
        completed += first[k] is not None
    for k, result in repeat:
        check_repeats(kp, tally, f"input {k}", inputs[k], inputs[k].obstacles, None, result)
    checks = [c for c in first.values() if c is not None]
    failed = sum(c is None or c.collides for c in first.values())
    metrics = {
        "plan_ms_p50": (measure.percentile(times, 50), "ms", len(times)),
        "plan_ms_mean": (statistics.fmean(times), "ms", len(times)),
        "plan_ms_p90": (measure.percentile(times, 90), "ms", len(times)),
        "plans_per_s": (measure.ratio(completed, sum(times) / 1000.0), "1/s", len(times)),
    }
    metrics.update(plan_quality(checks, len(inputs), failed))
    return metrics


def sim_runs(inputs, seed: int) -> list[tuple]:
    """``(name, scenario, noise seed)``: each bundled scenario ``SIMS_PER_SCENARIO`` times.

    Detection noise changes which replans a run makes, so a run holds
    several noise draws per scenario to keep its mix of replans steady.
    """
    rng = random.Random(seed)
    return [
        (name, scenario, noise)
        for name, scenario in zip(scenes.BUNDLED, inputs)
        for noise in [rng.randrange(2**31) for _ in range(SIMS_PER_SCENARIO)]
    ]


def run_closed_loop(kp, runs, seconds: float, tally: Tally) -> dict:
    """``simulate_run`` on each of ``runs`` in turn, in whole passes, for about ``seconds``.

    Replan-time statistics are taken per scenario and then averaged, so every
    scenario weighs the same however many replans its runs made; a run that
    fails early would otherwise shift the mix.
    """
    replan_ms, walls, first, repeat = [], [], {}, []
    by_scenario: dict[str, list[float]] = {}
    misses = plan_failures = 0
    for k in passes(len(runs), seconds):
        name, scenario, noise = runs[k]
        label = f"{name} noise {noise}"
        with (recording_plans(kp) if k not in first else nullcontext()) as calls:
            t0 = now()
            trace = kp.simulate_run(scenario, seed=noise)
            walls.append(now() - t0)
        budget_ms = 1000.0 / scenario.replan_rate
        run_ms = [t.replan_ms for t in trace.ticks if t.replan_ms > 0.0]
        replan_ms += run_ms
        by_scenario.setdefault(name, []).extend(run_ms)
        misses += sum(ms > budget_ms for ms in run_ms) + trace.plan_failures
        plan_failures += trace.plan_failures
        if k not in first:
            if k == 0:
                repeat = [(label, scenario, call) for call in calls[:REPEAT_CHECKS]]
            checks = [
                check_plan(result, scenario, obstacles)
                for obstacles, _, result, _ in calls
                if not isinstance(result, kp.PlanFailure)
            ]
            first[k] = (trace, checks)
        tally.require(trace.min_clearance >= 0.0, f"{label}: collision")
        collided = sum(c.collides for c in first[k][1])
        tally.attempted += len(run_ms) + trace.plan_failures + 1
        tally.failed += trace.plan_failures + collided + (trace.status != "reached")
    for label, scenario, (obstacles, start, result, _) in repeat:
        check_repeats(kp, tally, label, scenario, obstacles, start, result)
    checks = [c for _, cs in first.values() for c in cs]
    traces = [t for t, _ in first.values()]
    attempts = len(checks) + sum(t.plan_failures for t in traces) + len(traces)
    failed = (
        sum(t.plan_failures for t in traces)
        + sum(c.collides for c in checks)
        + sum(t.status != "reached" for t in traces)
    )
    reached = [t.elapsed for t in traces if t.status == "reached"]
    groups = [v for v in by_scenario.values() if v]

    def per_scenario(stat) -> tuple:
        return statistics.fmean(stat(v) for v in groups), "ms", len(replan_ms)

    metrics = {
        "plan_ms_p50": per_scenario(lambda v: measure.percentile(v, 50)),
        "plan_ms_mean": per_scenario(statistics.fmean),
        "plan_ms_p90": per_scenario(lambda v: measure.percentile(v, 90)),
        "replan_ms_p95": per_scenario(lambda v: measure.percentile(v, 95)),
        "deadline_miss_ratio": (
            measure.ratio(misses, len(replan_ms) + plan_failures), "ratio",
            len(replan_ms) + plan_failures,
        ),
        "plans_per_s": (measure.ratio(len(replan_ms), sum(walls)), "1/s", len(replan_ms)),
        "sim_wall_s": (statistics.median(walls), "s", len(walls)),
    }
    metrics.update(plan_quality(checks, attempts, failed))
    if reached:
        metrics["arrival_s"] = (statistics.fmean(reached), "s", len(reached))
    metrics["min_clearance_m"] = (min(t.min_clearance for t in traces), "m", len(traces))
    return metrics


# --------------------------------------------------------------------------
# Traced runs (per-layer metrics)


def compare_traced(kp, tally: Tally, label: str, result, work) -> None:
    """The traced rebuild must choose exactly what ``plan_once`` chose."""
    if isinstance(result, kp.PlanFailure):
        tally.require(work.failure == result.reason, f"{label}: traced plan failure differs")
        return
    same = (
        work.index == result.chosen_index
        and work.candidates[work.index].final_cost
        == result.candidates[result.chosen_index].final_cost
    )
    tally.require(same, f"{label}: traced plan chose differently")


def kernel_times(kp, cases) -> dict[str, list[float]]:
    """Per-call time of the optimizer's kernels on chosen trajectories."""
    out = {"optimizer.total_cost_us": [], "optimizer.cost_gradient_us": [],
           "optimizer.adapt_density_ms": []}
    step = max(1, len(cases) // KERNEL_TRAJECTORIES)
    for scenario, obstacles, traj in cases[::step]:
        for name, call, scale in (
            ("optimizer.total_cost_us",
             lambda: kp.total_cost(traj, obstacles, scenario.weights, scenario.limits), 1e6),
            ("optimizer.cost_gradient_us",
             lambda: kp.cost_gradient(traj, obstacles, scenario.weights, scenario.limits), 1e6),
            ("optimizer.adapt_density_ms",
             lambda: kp.adapt_density(traj, scenario.density), 1e3),
        ):
            per_call = []
            for _ in range(KERNEL_CALLS):
                t0 = now()
                call()
                per_call.append((now() - t0) * scale)
            out[name].append(statistics.median(per_call))
    return out


def replay_tracking(kp, scenario, sim_seed: int, elapsed: float) -> list[float]:
    """``kf_predict`` + ``kf_update`` per detection, on a run's detection stream.

    Draws the same noise in the same order as ``simulate_run`` with this seed.
    """
    rng = np.random.default_rng(sim_seed)
    period = 1.0 / scenario.detection_rate
    std = scenario.detection_noise_std
    tracks, per_update = {}, []
    n = 0
    while n * period <= elapsed + 1e-9:
        td = n * period
        for oid, obs in enumerate(scenario.obstacles):
            noise = rng.normal(0.0, 1.0, size=2) * std
            true_pos = kp.obstacle_at(obs, td).position
            det = kp.Detection(oid, kp.Vec2(true_pos.x + noise[0], true_pos.y + noise[1]), td, std)
            track = tracks.get(oid)
            if track is None:
                tracks[oid] = kp.kf_init(det)
                continue
            t0 = now()
            gap = td - track.last_update
            if gap > 1e-9:
                track = kp.kf_predict(track, gap)
            tracks[oid] = kp.kf_update(track, det)
            per_update.append((now() - t0) * 1e6)
        n += 1
    return per_update


def simulate_for_layers(kp, scenario, sim_seed: int, record: bool):
    """One ``simulate_run`` with the simulator's own per-tick overhead."""
    with (recording_plans(kp) if record else nullcontext()) as calls:
        t0 = now()
        trace = kp.simulate_run(scenario, seed=sim_seed)
        wall_ms = (now() - t0) * 1000.0
    replan_total = sum(t.replan_ms for t in trace.ticks)
    overhead = (wall_ms - replan_total) / len(trace.ticks)
    updates = replay_tracking(kp, scenario, sim_seed, trace.elapsed)
    return trace, calls, overhead, updates


def layer_metrics(tracer: Tracer, works, untraced_ms, kernels, sim, parse_ms) -> dict:
    """Per-layer metrics from the spans, the exact work counts and the sim runs."""
    spans = tracer.spans
    own = measure.self_times(spans)
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, list[float]] = {}
    per_plan_verify: dict[int, float] = {}
    for (name, start, end, _, plan_id), self_s in zip(spans, own):
        by_name.setdefault(name, []).append((end - start) * 1000.0)
        self_by_name.setdefault(name, []).append(self_s * 1000.0)
        if name == "planner.trajectory_is_free":
            per_plan_verify[plan_id] = per_plan_verify.get(plan_id, 0.0) + (end - start) * 1000.0
    plans = by_name["planner.plan"]
    plan_total = sum(plans)
    enumerations = [w for w in works if w.enumerated]
    optimized = sum(len(w.states) + w.errors for w in works)
    descended = sum(len(w.states) for w in works)
    verify = [per_plan_verify.get(pid, 0.0) for pid in sorted({s[4] for s in spans})]
    overheads, replans, updates = sim
    m = {
        "homotopy.enumerate_ms_p50": (
            measure.percentile(by_name["homotopy.enumerate_seed_paths"], 50), "ms",
            len(by_name["homotopy.enumerate_seed_paths"])),
        "homotopy.enumerate_share": (
            measure.ratio(sum(by_name["homotopy.enumerate_seed_paths"]), plan_total), "ratio",
            len(plans)),
        "homotopy.seeds_per_plan": (
            measure.ratio(sum(w.seeds for w in enumerations), len(enumerations)), "count",
            len(enumerations)),
        "homotopy.empty_ratio": (
            measure.ratio(sum(w.seeds == 0 for w in enumerations), len(enumerations)), "ratio",
            len(enumerations)),
        "optimizer.optimize_ms_per_candidate_p50": (
            measure.percentile(by_name["optimizer.optimize_candidate"], 50), "ms",
            len(by_name["optimizer.optimize_candidate"])),
        "optimizer.optimize_share": (
            measure.ratio(sum(by_name["optimizer.optimize_candidate"]), plan_total), "ratio",
            len(plans)),
        "optimizer.inner_iters_per_plan": (
            measure.ratio(sum(w.iterations for w in enumerations), len(enumerations)), "count",
            len(enumerations)),
        "optimizer.states_per_candidate": (
            measure.ratio(sum(sum(w.states) for w in works), descended), "count", descended),
        "optimizer.converged_ratio": (
            measure.ratio(sum(w.converged for w in works), optimized), "ratio", optimized),
        "optimizer.preserved_ratio": (
            measure.ratio(sum(w.preserved for w in works), optimized), "ratio", optimized),
        "optimizer.error_ratio": (
            measure.ratio(sum(w.errors for w in works), optimized), "ratio", optimized),
    }
    for name, values in kernels.items():
        m[name] = (statistics.median(values), name.rsplit("_", 1)[1], len(values))
    m.update({
        "planner.verify_ms_per_plan": (measure.percentile(verify, 50), "ms", len(verify)),
        "planner.feasible_ratio": (
            measure.ratio(sum(w.feasible for w in works), optimized), "ratio", optimized),
        "planner.select_us": (
            measure.percentile(by_name["planner.select_best"], 50) * 1000.0, "us",
            len(by_name["planner.select_best"])),
        "planner.plan_self_ms": (
            measure.percentile(self_by_name["planner.plan"], 50), "ms", len(plans)),
        "planner.sim_overhead_ms_per_tick": (statistics.median(overheads), "ms", len(overheads)),
        "planner.replans_per_run": (statistics.fmean(replans), "count", len(replans)),
        "tracking.update_us": (measure.percentile(updates, 50), "us", len(updates)),
        "scenario_io.parse_ms": (statistics.median(parse_ms), "ms", len(parse_ms)),
        "trace.overhead_ms": (
            measure.percentile(plans, 50) - measure.percentile(untraced_ms, 50), "ms", len(plans)),
    })
    return m


def trace_plans(kp, tracer, inputs, first, seed, seconds, tally):
    """Alternate ``plan_once`` and its traced rebuild on each input until the time is up.

    Work counts come from the first pass over the inputs only, so they
    repeat exactly for a seed whatever the host speed.
    """
    works, untraced, cases = [], [], []
    for attempt, k in enumerate(passes(len(inputs), seconds)):
        scenario = inputs[k]
        t0 = now()
        try:
            result = kp.plan_once(scenario, scenario.obstacles)
        except kp.PlanFailure as exc:
            result = exc
        untraced.append((now() - t0) * 1000.0)
        traced = traced_plan(kp, tracer, attempt, scenario, scenario.obstacles)
        compare_traced(kp, tally, f"input {k}", result, traced)
        tally.attempted += 1
        tally.failed += isinstance(result, kp.PlanFailure)
        if attempt < len(inputs):
            works.append(traced)
            if not isinstance(result, kp.PlanFailure):
                cases.append((scenario, scenario.obstacles, result.chosen))
    probe = dataclasses.replace(first, sim_duration_max=SIM_PROBE_S)
    trace, _, overhead, updates = simulate_for_layers(kp, probe, seed, False)
    sim = ([overhead], [len(trace.ticks)], updates)
    return works, untraced, kernel_times(kp, cases), sim


def trace_closed_loop(kp, tracer, runs, tally):
    """Each ``simulate_run`` once, then every replan replayed from its tick record.

    The replay times ``plan_once`` and its traced rebuild back to back, so
    that the tracing overhead compares like with like.
    """
    works, untraced, cases = [], [], []
    overheads, replans, updates = [], [], []
    plan_id = 0
    for name, scenario, noise in runs:
        label = f"{name} noise {noise}"
        trace, calls, overhead, run_updates = simulate_for_layers(kp, scenario, noise, True)
        overheads.append(overhead)
        replans.append(len(calls))
        updates += run_updates
        # Each plan_once call appends one tick, failed or not; only a
        # collision found before planning appends a tick without a call.
        tally.require(len(trace.ticks) - (trace.status == "collision") == len(calls),
                      f"{label}: tick log incomplete")
        for tick, (obstacles, start, result, _) in zip(trace.ticks, calls):
            known = tuple(o for o in tick.obstacles_est if o is not None)
            tally.require(known == tuple(obstacles) and start == tick.vehicle,
                          f"{label}: tick log differs from the planner's input")
            t0 = now()
            try:
                kp.plan_once(scenario, known, start=tick.vehicle)
            except kp.PlanFailure:
                pass
            untraced.append((now() - t0) * 1000.0)
            traced = traced_plan(kp, tracer, plan_id, scenario, known, tick.vehicle)
            compare_traced(kp, tally, f"{label} plan {plan_id}", result, traced)
            works.append(traced)
            if not isinstance(result, kp.PlanFailure):
                cases.append((scenario, known, result.chosen))
            plan_id += 1
        tally.attempted += len(calls) + 1
        tally.failed += trace.plan_failures + (trace.status != "reached")
        tally.require(trace.min_clearance >= 0.0, f"{label}: collision")
    return works, untraced, kernel_times(kp, cases), (overheads, replans, updates)


# --------------------------------------------------------------------------


# The JSON line carries these. Plan times are bimodal on every workload (easy
# and hard scenes; replans far from and near the goal), so their median jumps
# between the modes from seed to seed; the mean does not. Median clearance sits
# on the optimizer's 0.1 m buffer and jumps the same way. plans_per_s repeats
# plan_ms_mean, plus the failures that ok_ratio counts. All stay in the table.
END_TO_END = (
    "setup_s", "plan_ms_mean", "plan_ms_p90", "plan_cost_p50", "arrival_s",
    "limit_ratio_p50", "ok_ratio", "peak_rss_mb",
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, Tally, set]:
    docs = scenes.corridor_scenes(seed, CORRIDOR_SCENES) if workload == "plan_corridor" else []
    setup_s, parse_ms = [], []
    kp, inputs, first = set_up(workload, docs, setup_s, parse_ms)
    tally = Tally()
    if not traced:
        if workload == "closed_loop":
            metrics = run_closed_loop(kp, sim_runs(inputs, seed), seconds, tally)
        else:
            metrics = run_plans(kp, inputs, seconds, tally)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
        set_up(workload, docs, setup_s, parse_ms)  # set-up samples from both ends of the run
        metrics["setup_s"] = (statistics.median(setup_s), "s", len(setup_s))
        return metrics, tally, set(END_TO_END)
    tracer = Tracer()
    if workload == "closed_loop":
        runs = sim_runs(inputs, seed)[::SIMS_PER_SCENARIO]  # one noise draw per scenario
        works, untraced, kernels, sim = trace_closed_loop(kp, tracer, runs, tally)
    else:
        half = inputs[: len(inputs) // 2]
        works, untraced, kernels, sim = trace_plans(kp, tracer, half, first, seed, seconds, tally)
    metrics = layer_metrics(tracer, works, untraced, kernels, sim, parse_ms)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return metrics, tally, set(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kinoplan" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"perfbench: no kinoplan source tree at {SRC} and {SCENARIOS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    metrics, tally, reported = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name in sorted(metrics):
        value, unit, n = metrics[name]
        print(f"{args.workload:<14} {name:<42} {value:>14.6f} {unit:<6} n={n}")
    for problem in tally.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in sorted(metrics.items())
            if name in reported
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
