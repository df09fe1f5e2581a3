"""Planning orchestration and the closed-loop replanning simulator.

``plan_once`` runs the full pipeline for one epoch: enumerate homotopy-class
seeds, optimize every candidate, drop the ones that left their class or fail
the time-indexed collision check, and pick the cheapest survivor. The
candidates are optimized and checked at the same time, shared between this
process and forked workers (``workers.WorkerPool``).
``simulate_run`` closes the loop: noisy detections feed per-obstacle Kalman
tracks, the planner consumes only the estimated obstacle states, and ground
truth is used solely for collision scoring.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)

from .collision import _ObstacleArrays, polyline_clear
from .geometry import KinodynamicLimits, MotionModel, ObstacleState, Trajectory, Vec2
from .homotopy import SeedPath, enumerate_seed_paths
from .optimizer import (
    DEFAULT_DENSITY,
    DEFAULT_WEIGHTS,
    CostWeights,
    DensityParams,
    OptimizationError,
    _to_trajectory,
    optimize_arrays,
)
from .tracking import (
    Detection,
    KalmanTrack,
    classify_motion,
    kf_init,
    kf_predict,
    kf_update,
    obstacle_at,
    track_to_obstacle,
)
from .workers import WorkerPool

GOAL_TOLERANCE = 0.1       # m; the vehicle counts as arrived inside this
ADVANCE_SAMPLE_S = 0.05    # clearance scoring substep while the vehicle moves


class PlanFailure(RuntimeError):
    """No usable trajectory this epoch; ``reason`` is 'no_path' or 'all_infeasible'."""

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or reason)
        self.reason = reason


@dataclass(frozen=True)
class Scenario:
    """Full planning problem: endpoints, obstacles, tuning, and loop rates."""

    start: Vec2
    goal: Vec2
    obstacles: tuple[ObstacleState, ...] = ()
    limits: KinodynamicLimits = KinodynamicLimits()
    weights: CostWeights = DEFAULT_WEIGHTS
    density: DensityParams = DEFAULT_DENSITY
    max_classes: int = 5
    margin: float = 0.0
    detection_rate: float = 10.0
    detection_noise_std: float = 0.01
    replan_rate: float = 4.0
    sim_duration_max: float = 60.0

    def __post_init__(self) -> None:
        if self.start == self.goal:
            raise ValueError("start and goal must differ")
        if self.max_classes < 1:
            raise ValueError("max_classes must be >= 1")
        if self.detection_rate <= 0.0 or self.replan_rate <= 0.0:
            raise ValueError("rates must be positive")
        if self.margin < 0.0:
            raise ValueError("margin must be >= 0")
        if self.detection_noise_std < 0.0:
            raise ValueError("detection_noise_std must be >= 0")
        if self.sim_duration_max <= 0.0:
            raise ValueError("sim_duration_max must be positive")


@dataclass(frozen=True)
class CandidateInfo:
    """Outcome of one homotopy-class candidate."""

    signature: tuple[float, ...]
    final_cost: float
    signature_preserved: bool
    feasible: bool
    state_count: int


@dataclass(frozen=True)
class PlanResult:
    chosen: Trajectory
    chosen_index: int
    candidates: tuple[CandidateInfo, ...]
    plan_time_ms: float
    eta: float
    state_count: int


@dataclass(frozen=True)
class TickRecord:
    time: float
    vehicle: Vec2
    obstacles_true: tuple[ObstacleState, ...]
    obstacles_est: tuple[Optional[ObstacleState], ...]
    plan_id: int
    replan_ms: float
    clearance: float


@dataclass
class SimTrace:
    status: str  # reached | timeout | collision
    ticks: list[TickRecord] = field(default_factory=list)
    eta: float = float("nan")
    state_count: int = 0
    elapsed: float = 0.0
    min_clearance: float = float("inf")
    plan_time_mean_ms: float = float("nan")
    plan_time_p95_ms: float = float("nan")
    plan_failures: int = 0


def trajectory_is_free(
    traj: Trajectory, obstacles: Sequence[ObstacleState], margin: float
) -> bool:
    """Time-indexed sweep of every trajectory segment against predicted
    obstacles: ``collision.polyline_clear`` on the trajectory's arrays."""
    return polyline_clear(
        traj.positions(), traj.durations(), _ObstacleArrays(obstacles), margin
    )


def _point_clear(p: Vec2, obstacles: Sequence[ObstacleState], margin: float) -> bool:
    return all(p.distance_to(o.position) > o.safety_radius + margin for o in obstacles)


def select_best(candidates: Sequence[CandidateInfo]) -> int:
    """Index of the cheapest feasible, class-preserving candidate.

    Ties go to the candidate with fewer states, then the lower index.
    """
    best: Optional[int] = None
    for i, c in enumerate(candidates):
        if not (c.feasible and c.signature_preserved):
            continue
        if best is None:
            best = i
            continue
        b = candidates[best]
        if c.final_cost < b.final_cost or (
            c.final_cost == b.final_cost and c.state_count < b.state_count
        ):
            best = i
    if best is None:
        raise PlanFailure("all_infeasible", "no feasible signature-preserving candidate")
    return best


def _solve_seeds(
    seeds: Sequence[SeedPath],
    obstacles: Sequence[ObstacleState],
    weights: CostWeights,
    limits: KinodynamicLimits,
    density: DensityParams,
    margin: float,
    record: bool,
) -> list[tuple[object, list[tuple[float, float]]]]:
    """Optimize and check each seed: one ``(outcome, pairs)`` per seed.

    The outcome is ``(p, dts, report, feasible)``, None when the descent
    raised ``OptimizationError``, or any other exception it raised. ``pairs``
    holds the (before, after) costs of every accepted descent step when
    ``record`` is set, and is empty otherwise.
    """
    obs = _ObstacleArrays(obstacles)
    out = []
    for seed in seeds:
        pairs: list[tuple[float, float]] = []
        accept = (lambda before, after: pairs.append((before, after))) if record else None
        try:
            p, dts, report = optimize_arrays(
                seed, obstacles, obs, weights, limits, density, on_accept=accept
            )
        except OptimizationError:
            outcome = None
        except Exception as exc:
            outcome = exc
        else:
            feasible = report.signature_preserved and polyline_clear(p, dts, obs, margin)
            outcome = (p, dts, report, feasible)
        out.append((outcome, pairs))
    return out


# Candidates run here and in forked workers, one per extra CPU.
_pool = WorkerPool(_solve_seeds)


def plan_once(
    scenario: Scenario,
    obstacles: Sequence[ObstacleState],
    start: Optional[Vec2] = None,
    on_accept=None,
) -> PlanResult:
    """Plan a full trajectory from ``start`` (default scenario start) to the goal.

    ``obstacles`` are the tracked/known states at the planning epoch;
    trajectory timestamps are offsets from that epoch. The seeds are shared
    between this process and the workers of ``_pool``, and the plan is the
    one that optimizing them here one after another would give.
    ``on_accept(before, after)`` is called for every accepted descent step,
    seed by seed, once all candidates are done; an exception other than
    ``OptimizationError`` from a candidate's descent is raised here.
    """
    tic = time.perf_counter()
    origin = start if start is not None else scenario.start
    if not _point_clear(origin, obstacles, scenario.margin):
        raise PlanFailure("no_path", "start is inside an obstacle safety margin")
    if not _point_clear(scenario.goal, obstacles, scenario.margin):
        raise PlanFailure("no_path", "goal is inside an obstacle safety margin")

    seeds = enumerate_seed_paths(
        origin,
        scenario.goal,
        obstacles,
        scenario.max_classes,
        scenario.margin,
        conflict_speed=scenario.limits.v_max,
    )
    if not seeds:
        raise PlanFailure("no_path", "no collision-free seed path found")

    # Longest seeds first: they tend to take longest to optimize, and
    # whichever process is free takes the next one.
    order = sorted(range(len(seeds)), key=lambda i: seeds[i].length, reverse=True)
    solved = _pool.map(
        [seeds[i] for i in order], obstacles, scenario.weights, scenario.limits,
        scenario.density, scenario.margin, on_accept is not None,
    )
    by_seed = dict(zip(order, solved))
    outcomes = [by_seed[i] for i in range(len(seeds))]
    infos: list[CandidateInfo] = []
    for seed, (outcome, pairs) in zip(seeds, outcomes):
        for before, after in pairs:
            on_accept(before, after)
        if isinstance(outcome, BaseException):
            raise outcome
        if outcome is None:
            infos.append(CandidateInfo(seed.signature.windings, math.inf, False, False, 0))
            continue
        p, _, report, feasible = outcome
        infos.append(
            CandidateInfo(
                signature=seed.signature.windings,
                final_cost=report.final_cost,
                signature_preserved=report.signature_preserved,
                feasible=feasible,
                state_count=len(p),
            )
        )

    idx = select_best(infos)
    chosen_p, chosen_dts, _, _ = outcomes[idx][0]
    chosen = _to_trajectory(chosen_p, chosen_dts)
    plan_ms = (time.perf_counter() - tic) * 1000.0
    if log.isEnabledFor(logging.DEBUG):
        for i, c in enumerate(infos):
            log.debug(
                "candidate %d: cost=%.4f feasible=%s preserved=%s states=%d%s",
                i, c.final_cost, c.feasible, c.signature_preserved, c.state_count,
                "  <- chosen" if i == idx else "",
            )
    return PlanResult(
        chosen=chosen,
        chosen_index=idx,
        candidates=tuple(infos),
        plan_time_ms=plan_ms,
        eta=chosen.total_time,
        state_count=len(chosen.states),
    )


def sample_trajectory(traj: Trajectory, t: float) -> Vec2:
    """Position along the trajectory at plan-time ``t`` (clamped to the ends)."""
    if t <= 0.0:
        return traj.start
    acc = 0.0
    for a, b in zip(traj.states[:-1], traj.states[1:]):
        if t <= acc + a.dt:
            f = (t - acc) / a.dt
            return Vec2(
                a.position.x + (b.position.x - a.position.x) * f,
                a.position.y + (b.position.y - a.position.y) * f,
            )
        acc += a.dt
    return traj.goal


def _estimated_obstacles(
    scenario: Scenario, tracks: dict[int, KalmanTrack], now: float
) -> tuple[Optional[ObstacleState], ...]:
    """Planning view of the world: classified tracks, or a static fallback."""
    est: list[Optional[ObstacleState]] = []
    for oid, true_obs in enumerate(scenario.obstacles):
        track = tracks.get(oid)
        if track is None:
            est.append(None)
            continue
        gap = now - track.last_update
        if gap > 1e-9:
            track = kf_predict(track, gap)
        if classify_motion(track) is None:
            # Not enough evidence yet: hold position, assume static.
            est.append(
                ObstacleState(
                    position=track.position(),
                    safety_radius=true_obs.safety_radius,
                    model=MotionModel.STATIC,
                )
            )
        else:
            est.append(track_to_obstacle(track, true_obs.safety_radius))
    return tuple(est)


def simulate_run(scenario: Scenario, seed: int = 0) -> SimTrace:
    """Closed-loop run: track, replan, and advance until goal, collision, or timeout.

    The trace's ``eta``/``state_count`` report the first full plan from the
    start (the complete start-to-goal trajectory estimate); ``elapsed`` is the
    realized simulation time at termination.
    """
    rng = np.random.default_rng(seed)
    tick = 1.0 / scenario.replan_rate
    det_period = 1.0 / scenario.detection_rate
    tracks: dict[int, KalmanTrack] = {}
    trace = SimTrace(status="timeout")
    plan_times: list[float] = []

    vehicle = scenario.start
    t = 0.0
    next_det = 0
    plan_id = -1
    first_plan: Optional[PlanResult] = None

    def true_states(at: float) -> tuple[ObstacleState, ...]:
        return tuple(obstacle_at(o, at) for o in scenario.obstacles)

    def clearance(p: Vec2, states: Sequence[ObstacleState]) -> float:
        if not states:
            return float("inf")
        return min(p.distance_to(o.position) - o.safety_radius for o in states)

    while t <= scenario.sim_duration_max + 1e-9:
        # Feed detections that became available since the previous tick.
        while next_det * det_period <= t + 1e-9:
            td = next_det * det_period
            for oid, obs in enumerate(scenario.obstacles):
                noise = rng.normal(0.0, 1.0, size=2) * scenario.detection_noise_std
                true_pos = obstacle_at(obs, td).position
                det = Detection(
                    oid,
                    Vec2(true_pos.x + noise[0], true_pos.y + noise[1]),
                    td,
                    scenario.detection_noise_std,
                )
                track = tracks.get(oid)
                if track is None:
                    tracks[oid] = kf_init(det)
                else:
                    gap = td - track.last_update
                    if gap > 1e-9:
                        track = kf_predict(track, gap)
                    tracks[oid] = kf_update(track, det)
            next_det += 1

        now_true = true_states(t)
        clear_now = clearance(vehicle, now_true)
        trace.min_clearance = min(trace.min_clearance, clear_now)
        if clear_now < 0.0:
            trace.status = "collision"
            trace.ticks.append(
                TickRecord(t, vehicle, now_true, _estimated_obstacles(scenario, tracks, t),
                           plan_id, 0.0, clear_now)
            )
            break
        if vehicle.distance_to(scenario.goal) <= GOAL_TOLERANCE:
            trace.status = "reached"
            break

        est = _estimated_obstacles(scenario, tracks, t)
        known = tuple(o for o in est if o is not None)
        try:
            result = plan_once(scenario, known, start=vehicle)
        except PlanFailure as exc:
            log.warning("replan failed at t=%.2f: %s", t, exc)
            trace.plan_failures += 1
            trace.status = "timeout"
            trace.ticks.append(TickRecord(t, vehicle, now_true, est, plan_id, 0.0, clear_now))
            break
        plan_id += 1
        plan_times.append(result.plan_time_ms)
        if first_plan is None:
            first_plan = result

        trace.ticks.append(
            TickRecord(t, vehicle, now_true, est, plan_id, result.plan_time_ms, clear_now)
        )

        # Advance along the fresh plan for one replanning period, scoring
        # clearance against ground truth at fine substeps.
        n_sub = max(1, int(math.ceil(tick / ADVANCE_SAMPLE_S)))
        collided = False
        for k in range(1, n_sub + 1):
            tau = tick * k / n_sub
            pos = sample_trajectory(result.chosen, tau)
            c = clearance(pos, true_states(t + tau))
            trace.min_clearance = min(trace.min_clearance, c)
            if c < 0.0:
                vehicle = pos
                t = t + tau
                collided = True
                break
        if collided:
            trace.status = "collision"
            break
        vehicle = sample_trajectory(result.chosen, tick)
        t += tick

    trace.elapsed = t
    if first_plan is not None:
        trace.eta = first_plan.eta
        trace.state_count = first_plan.state_count
    if plan_times:
        trace.plan_time_mean_ms = float(np.mean(plan_times))
        trace.plan_time_p95_ms = float(np.percentile(plan_times, 95))
    return trace
