"""Scenario file parsing/writing and JSON views of planner outputs.

Scenario files are plain JSON mirroring the Scenario dataclass. Every check
failure names the offending field; unknown keys are rejected rather than
silently ignored.
"""
from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

from .geometry import KinodynamicLimits, MotionModel, ObstacleState, Trajectory, Vec2
from .optimizer import CostWeights, DensityParams
from .planner import PlanResult, Scenario, SimTrace


class ScenarioError(ValueError):
    """Scenario file failed validation; the message names the field."""


_SCENARIO_KEYS = {
    "start",
    "goal",
    "obstacles",
    "limits",
    "weights",
    "density",
    "max_classes",
    "margin",
    "rates",
    "detection_noise_std",
    "sim_duration_max",
}
_OBSTACLE_KEYS = {"position", "velocity", "acceleration", "safety_radius", "model"}
_LIMIT_KEYS = {"v_max", "a_max"}
_WEIGHT_KEYS = {"w_time", "w_obstacle", "w_smooth", "w_vel", "w_acc"}
_DENSITY_KEYS = {"d_min", "d_max", "d_max_bend", "kappa_thresh"}
_RATE_KEYS = {"detection", "replan"}

_MODEL_NAMES = {m.value: m for m in MotionModel}


def _reject_unknown(doc: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(f"unknown key \"{unknown[0]}\" in {where}")


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _vec2(value: Any, where: str) -> Vec2:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(f"{where}: expected [x, y]")
    try:
        return Vec2(_number(value[0], where), _number(value[1], where))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _obstacle(doc: Any, where: str) -> ObstacleState:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where}: expected an object")
    _reject_unknown(doc, _OBSTACLE_KEYS, where)
    if "position" not in doc:
        raise ScenarioError(f"missing required key \"{where}.position\"")
    pos = _vec2(doc["position"], f"{where}.position")
    vel = _vec2(doc["velocity"], f"{where}.velocity") if "velocity" in doc else Vec2(0.0, 0.0)
    acc = (
        _vec2(doc["acceleration"], f"{where}.acceleration")
        if "acceleration" in doc
        else Vec2(0.0, 0.0)
    )
    radius = _number(doc.get("safety_radius", 0.5), f"{where}.safety_radius")

    if "model" in doc:
        name = doc["model"]
        if name not in _MODEL_NAMES:
            raise ScenarioError(
                f"{where}.model: unknown model {name!r} (expected one of "
                f"{sorted(_MODEL_NAMES)})"
            )
        model = _MODEL_NAMES[name]
    elif acc.norm() != 0.0:
        model = MotionModel.CONST_ACCELERATION
    elif vel.norm() != 0.0:
        model = MotionModel.CONST_VELOCITY
    else:
        model = MotionModel.STATIC

    if model is MotionModel.STATIC and vel.norm() != 0.0:
        raise ScenarioError(f"{where}.velocity: must be zero for model \"static\"")
    if model is not MotionModel.CONST_ACCELERATION and acc.norm() != 0.0:
        raise ScenarioError(
            f"{where}.acceleration: must be zero for model \"{model.value}\""
        )
    try:
        return ObstacleState(pos, vel, acc, radius, model)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _section(doc: Mapping[str, Any], key: str, allowed: set[str]) -> dict[str, float]:
    sub = doc.get(key)
    if sub is None:
        return {}
    if not isinstance(sub, dict):
        raise ScenarioError(f"{key}: expected an object")
    _reject_unknown(sub, allowed, key)
    return {k: _number(v, f"{key}.{k}") for k, v in sub.items()}


def parse_scenario_dict(doc: Mapping[str, Any]) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected a JSON object")
    _reject_unknown(doc, _SCENARIO_KEYS, "scenario")
    for required in ("start", "goal"):
        if required not in doc:
            raise ScenarioError(f"missing required key \"{required}\"")

    start = _vec2(doc["start"], "start")
    goal = _vec2(doc["goal"], "goal")

    raw_obstacles = doc.get("obstacles", [])
    if not isinstance(raw_obstacles, list):
        raise ScenarioError("obstacles: expected an array")
    obstacles = tuple(
        _obstacle(o, f"obstacles[{i}]") for i, o in enumerate(raw_obstacles)
    )

    try:
        limits = KinodynamicLimits(**_section(doc, "limits", _LIMIT_KEYS))
        weights = CostWeights(**_section(doc, "weights", _WEIGHT_KEYS))
        density = DensityParams(**_section(doc, "density", _DENSITY_KEYS))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    rates = _section(doc, "rates", _RATE_KEYS)
    kwargs: dict[str, Any] = {}
    if "max_classes" in doc:
        k = doc["max_classes"]
        if isinstance(k, bool) or not isinstance(k, int):
            raise ScenarioError("max_classes: expected an integer")
        kwargs["max_classes"] = k
    if "margin" in doc:
        kwargs["margin"] = _number(doc["margin"], "margin")
    if "detection" in rates:
        kwargs["detection_rate"] = rates["detection"]
    if "replan" in rates:
        kwargs["replan_rate"] = rates["replan"]
    if "detection_noise_std" in doc:
        kwargs["detection_noise_std"] = _number(doc["detection_noise_std"], "detection_noise_std")
    if "sim_duration_max" in doc:
        kwargs["sim_duration_max"] = _number(doc["sim_duration_max"], "sim_duration_max")

    try:
        return Scenario(
            start=start,
            goal=goal,
            obstacles=obstacles,
            limits=limits,
            weights=weights,
            density=density,
            **kwargs,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def parse_scenario(path: str) -> Scenario:
    """Load and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return parse_scenario_dict(doc)


def _obstacle_dict(o: ObstacleState) -> dict[str, Any]:
    """The one JSON view of an obstacle, in scenario files, plans and traces."""
    return {
        "position": [o.position.x, o.position.y],
        "velocity": [o.velocity.x, o.velocity.y],
        "acceleration": [o.acceleration.x, o.acceleration.y],
        "safety_radius": o.safety_radius,
        "model": o.model.value,
    }


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    """Inverse of ``parse_scenario_dict`` (round-trips exactly)."""
    return {
        "start": [s.start.x, s.start.y],
        "goal": [s.goal.x, s.goal.y],
        "obstacles": [_obstacle_dict(o) for o in s.obstacles],
        "limits": {"v_max": s.limits.v_max, "a_max": s.limits.a_max},
        "weights": {
            "w_time": s.weights.w_time,
            "w_obstacle": s.weights.w_obstacle,
            "w_smooth": s.weights.w_smooth,
            "w_vel": s.weights.w_vel,
            "w_acc": s.weights.w_acc,
        },
        "density": {
            "d_min": s.density.d_min,
            "d_max": s.density.d_max,
            "d_max_bend": s.density.d_max_bend,
            "kappa_thresh": s.density.kappa_thresh,
        },
        "max_classes": s.max_classes,
        "margin": s.margin,
        "rates": {"detection": s.detection_rate, "replan": s.replan_rate},
        "detection_noise_std": s.detection_noise_std,
        "sim_duration_max": s.sim_duration_max,
    }


def write_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)
        fh.write("\n")


def _trajectory_states(traj: Trajectory) -> list[dict[str, Any]]:
    return [
        {"position": [st.position.x, st.position.y], "heading": st.heading, "dt": st.dt}
        for st in traj.states
    ]


def plan_result_to_dict(
    result: PlanResult, scenario: Scenario, obstacles: Sequence[ObstacleState]
) -> dict[str, Any]:
    """Deterministic plan document (no wall-clock timing; see ``bench`` for that)."""
    return {
        "start": [scenario.start.x, scenario.start.y],
        "goal": [scenario.goal.x, scenario.goal.y],
        "obstacles": [_obstacle_dict(o) for o in obstacles],
        "eta": result.eta,
        "state_count": result.state_count,
        "chosen_index": result.chosen_index,
        "candidates": [
            {
                "signature": list(c.signature),
                "final_cost": c.final_cost,
                "signature_preserved": c.signature_preserved,
                "feasible": c.feasible,
                "state_count": c.state_count,
            }
            for c in result.candidates
        ],
        "trajectory": _trajectory_states(result.chosen),
    }


def trace_to_lines(trace: SimTrace) -> list[str]:
    """Newline-delimited JSON records: one per tick, then the summary."""
    lines = []
    for tick in trace.ticks:
        rec = {
            "type": "tick",
            "time": tick.time,
            "vehicle": [tick.vehicle.x, tick.vehicle.y],
            "plan_id": tick.plan_id,
            "replan_ms": tick.replan_ms,
            "clearance": tick.clearance,
            "obstacles": [
                {
                    "id": i,
                    "true": _obstacle_dict(true),
                    "estimated": None if est is None else _obstacle_dict(est),
                }
                for i, (true, est) in enumerate(zip(tick.obstacles_true, tick.obstacles_est))
            ],
        }
        lines.append(json.dumps(rec))
    summary = {
        "type": "summary",
        "status": trace.status,
        "eta": None if math.isnan(trace.eta) else trace.eta,
        "state_count": trace.state_count,
        "plan_time_mean_ms": None if math.isnan(trace.plan_time_mean_ms) else trace.plan_time_mean_ms,
        "plan_time_p95_ms": None if math.isnan(trace.plan_time_p95_ms) else trace.plan_time_p95_ms,
        "elapsed": trace.elapsed,
        "min_clearance": None if math.isinf(trace.min_clearance) else trace.min_clearance,
        "ticks": len(trace.ticks),
        "plan_failures": trace.plan_failures,
    }
    lines.append(json.dumps(summary))
    return lines
