"""Spans recorded around calls into kinoplan's public functions.

The traced plan rebuilds ``plan_once`` from the layer calls it makes
(enumerate, optimize per seed, verify, select), so each layer gets its own
span. Spans stay in memory until ``Tracer.write``.
"""
from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


class Tracer:
    """Spans as ``(name, start, end, parent, plan_id)``; ``parent`` is an index or -1."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, plan_id: int):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), math.nan, parent, plan_id))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            name, start, _, parent, plan_id = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, plan_id)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "plan_id")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


@dataclass
class PlanWork:
    """Outcome and work counts of one traced plan; all of them are exact."""

    candidates: list = field(default_factory=list)
    index: Optional[int] = None
    failure: Optional[str] = None
    enumerated: bool = False
    seeds: int = 0
    iterations: int = 0
    states: list[int] = field(default_factory=list)
    converged: int = 0
    preserved: int = 0
    errors: int = 0
    feasible: int = 0


def _point_clear(p, obstacles, margin: float) -> bool:
    return all(p.distance_to(o.position) > o.safety_radius + margin for o in obstacles)


def traced_plan(kp, tracer: Tracer, plan_id: int, scenario, obstacles, start=None):
    """``plan_once`` rebuilt from its public layer calls, one span per call.

    Where ``plan_once`` raises ``PlanFailure``, the returned work's
    ``failure`` holds the same reason instead.
    """
    work = PlanWork()
    infos = work.candidates
    span = tracer.span
    with span("planner.plan", plan_id):
        try:
            origin = start if start is not None else scenario.start
            if not _point_clear(origin, obstacles, scenario.margin):
                raise kp.PlanFailure("no_path", "start is inside an obstacle safety margin")
            if not _point_clear(scenario.goal, obstacles, scenario.margin):
                raise kp.PlanFailure("no_path", "goal is inside an obstacle safety margin")
            with span("homotopy.enumerate_seed_paths", plan_id):
                seeds = kp.enumerate_seed_paths(
                    origin,
                    scenario.goal,
                    obstacles,
                    scenario.max_classes,
                    scenario.margin,
                    conflict_speed=scenario.limits.v_max,
                )
            work.enumerated = True
            work.seeds = len(seeds)
            if not seeds:
                raise kp.PlanFailure("no_path", "no collision-free seed path found")
            for seed in seeds:
                try:
                    with span("optimizer.optimize_candidate", plan_id):
                        traj, report = kp.optimize_candidate(
                            seed, obstacles, scenario.weights, scenario.limits, scenario.density
                        )
                except kp.OptimizationError:
                    work.errors += 1
                    infos.append(
                        kp.CandidateInfo(seed.signature.windings, math.inf, False, False, 0)
                    )
                    continue
                work.iterations += report.iterations
                work.states.append(len(traj.states))
                work.converged += report.converged
                work.preserved += report.signature_preserved
                feasible = False
                if report.signature_preserved:
                    with span("planner.trajectory_is_free", plan_id):
                        feasible = kp.planner.trajectory_is_free(traj, obstacles, scenario.margin)
                work.feasible += feasible
                infos.append(
                    kp.CandidateInfo(
                        signature=seed.signature.windings,
                        final_cost=report.final_cost,
                        signature_preserved=report.signature_preserved,
                        feasible=feasible,
                        state_count=len(traj.states),
                    )
                )
            with span("planner.select_best", plan_id):
                work.index = kp.select_best(infos)
        except kp.PlanFailure as exc:
            work.failure = exc.reason
    return work
