"""Statistics and the benchmark's own plan checks (no kinoplan imports)."""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# The planner's swept check samples every 0.05 m and every 0.05 s; the
# benchmark samples ten times finer so that it can catch what that misses.
CHECK_STEP_M = 0.005
CHECK_STEP_S = 0.005


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100] (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(part: float, whole: float) -> float:
    """``part / whole`` for counts and shares; a zero base is an error, not 0."""
    if whole <= 0:
        raise ValueError(f"ratio needs a positive base, got {whole}")
    return part / whole


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Per span: its duration minus the time covered by its direct children.

    A span is ``(name, start, end, parent, plan_id)`` with ``parent`` an index
    into ``spans`` or -1. Children of one span never overlap, because the
    benchmark is single-threaded, so their durations simply add.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def sweep_samples(positions: np.ndarray, durations: np.ndarray):
    """Points and times along a piecewise-linear timed path, at the fine step."""
    seg = np.diff(positions, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    steps = np.maximum(
        np.maximum(np.ceil(lengths / CHECK_STEP_M), np.ceil(durations / CHECK_STEP_S)), 1
    ).astype(int)
    index = np.repeat(np.arange(len(seg)), steps)
    first = np.concatenate(([0], np.cumsum(steps)[:-1]))
    frac = (np.arange(index.size) - first[index]) / steps[index]
    times = np.concatenate(([0.0], np.cumsum(durations)))
    px = np.append(positions[index, 0] + seg[index, 0] * frac, positions[-1, 0])
    py = np.append(positions[index, 1] + seg[index, 1] * frac, positions[-1, 1])
    pt = np.append(times[index] + durations[index] * frac, times[-1])
    return px, py, pt


def clearance(positions: np.ndarray, durations: np.ndarray, obstacles, margin: float) -> float:
    """Least distance beyond ``safety_radius + margin`` to any predicted obstacle.

    Negative means the path enters a safety disc. Obstacles move as
    p + v t + a t^2 / 2, the model every kinoplan prediction uses.
    """
    if not obstacles:
        return math.inf
    px, py, pt = sweep_samples(positions, durations)
    half_t2 = 0.5 * pt * pt
    least = math.inf
    for o in obstacles:
        cx = o.position.x + o.velocity.x * pt + o.acceleration.x * half_t2
        cy = o.position.y + o.velocity.y * pt + o.acceleration.y * half_t2
        d = np.sqrt(np.min((px - cx) ** 2 + (py - cy) ** 2))
        least = min(least, float(d) - o.safety_radius - margin)
    return least


def peak_speed_accel(positions: np.ndarray, durations: np.ndarray) -> tuple[float, float]:
    """Peak segment speed, and peak acceleration as the velocity change between
    consecutive segments over their mean duration.

    A piecewise-linear path has constant speed on each segment, so the speed
    is exact. Its acceleration is the finite difference that the optimizer
    penalizes; there is no finer quantity to sample.
    """
    seg = np.diff(positions, axis=0)
    vel = seg / durations[:, None]
    v_peak = float(np.max(np.hypot(vel[:, 0], vel[:, 1])))
    if len(durations) < 2:
        return v_peak, 0.0
    dv = np.diff(vel, axis=0)
    tau = 0.5 * (durations[:-1] + durations[1:])
    return v_peak, float(np.max(np.hypot(dv[:, 0], dv[:, 1]) / tau))


def limit_ratio(v_peak: float, a_peak: float, v_max: float, a_max: float) -> float:
    """Worst use of the kinodynamic envelope; above 1 means a limit is exceeded."""
    return max(v_peak / v_max, a_peak / a_max)
