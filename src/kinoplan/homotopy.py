"""Winding-angle homotopy signatures and enumeration of class-distinct seed paths.

A path's signature is the accumulated signed angle swept around each obstacle
center. Two paths with the same endpoints are homotopy-equivalent exactly when
their windings agree per obstacle up to less than a half turn; passing an
obstacle on opposite sides differs by a full turn.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .collision import _ObstacleArrays, segments_clear
from .geometry import ObstacleState, Vec2
from .tracking import predict_position

DETOUR_FACTOR = 2.0          # detour nodes sit at this multiple of the safety radius
MAX_PATHS_EXAMINED = 200     # complete roadmap paths inspected before giving up
LENGTH_CUTOFF_FACTOR = 3.0   # drop classes longer than this multiple of the shortest
_MAX_HEAP_POPS = 50_000      # hard stop against pathological roadmaps
_CENTER_EPS = 1e-6


@dataclass(frozen=True)
class HomotopySignature:
    """Per-obstacle winding angles, in obstacle order."""

    windings: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.windings)


@dataclass(frozen=True)
class SeedPath:
    """Collision-free polyline from start to goal in one homotopy class."""

    waypoints: tuple[Vec2, ...]
    signature: HomotopySignature
    length: float


def winding_signature(
    waypoints: Sequence[Vec2], obstacles: Sequence[ObstacleState]
) -> HomotopySignature:
    """Sum the signed angle increments around each obstacle center.

    Each increment is normalized to (-pi, pi], so a polyline cannot jump a
    winding discontinuously between consecutive waypoints.
    """
    return _windings([(w.x, w.y) for w in waypoints], obstacles)


def _windings(
    pts: Sequence[Sequence[float]], obstacles: Sequence[ObstacleState]
) -> HomotopySignature:
    """``winding_signature`` of the waypoints given as (x, y) pairs, such as
    the rows of an (N, 2) array's ``tolist()``."""
    windings = []
    for obs in obstacles:
        cx, cy = obs.position.x, obs.position.y
        total = 0.0
        px, py = pts[0][0] - cx, pts[0][1] - cy
        if math.hypot(px, py) <= _CENTER_EPS:
            raise ValueError("waypoint coincides with an obstacle center")
        for x, y in pts[1:]:
            qx, qy = x - cx, y - cy
            if math.hypot(qx, qy) <= _CENTER_EPS:
                raise ValueError("waypoint coincides with an obstacle center")
            total += math.atan2(px * qy - py * qx, px * qx + py * qy)
            px, py = qx, qy
        windings.append(total)
    return HomotopySignature(tuple(windings))


def signatures_equivalent(a: HomotopySignature, b: HomotopySignature) -> bool:
    """True when the two paths can be deformed into each other."""
    if len(a) != len(b):
        raise ValueError(f"signature lengths differ: {len(a)} vs {len(b)}")
    return all(abs(wa - wb) < math.pi for wa, wb in zip(a.windings, b.windings))


def _detour_nodes(
    start: Vec2,
    goal: Vec2,
    obstacles: Sequence[ObstacleState],
    factor: float,
    conflict_speed: float | None,
) -> list[Vec2]:
    direction = goal - start
    norm = direction.norm()
    if norm == 0.0:
        raise ValueError("start and goal coincide")
    perp = Vec2(-direction.y / norm, direction.x / norm)
    nodes = []
    for obs in obstacles:
        offset = perp.scaled(obs.safety_radius * factor)
        anchors = [obs.position]
        if conflict_speed is not None and (
            obs.velocity.norm() > 0.0 or obs.acceleration.norm() > 0.0
        ):
            anchor = _conflict_anchor(start, direction, norm, obs, conflict_speed, factor)
            if anchor is not None and anchor.distance_to(obs.position) > 0.1 * obs.safety_radius:
                anchors.append(anchor)
        for c in anchors:
            nodes.append(c + offset)
            nodes.append(c - offset)
    return nodes


def _conflict_anchor(
    start: Vec2,
    direction: Vec2,
    span: float,
    obs: ObstacleState,
    speed: float,
    factor: float,
) -> Vec2 | None:
    """Predicted obstacle position at its closest approach to a nominal
    straight start-goal traversal at constant ``speed``; None if the nominal
    pass never comes near it. Moving obstacles conflict where they WILL be,
    not where they are, so detours must be anchored there."""
    horizon = span / speed
    best_d = math.inf
    best = obs.position
    for k in range(41):
        t = horizon * k / 40.0
        f = speed * t / span
        px = start.x + direction.x * f
        py = start.y + direction.y * f
        c = predict_position(obs, t)
        d = math.hypot(px - c.x, py - c.y)
        if d < best_d:
            best_d = d
            best = c
    if best_d > obs.safety_radius * factor:
        return None
    return best


def _free_matrix(
    nodes: Sequence[Vec2],
    lengths: Sequence[Sequence[float]],
    obstacles: _ObstacleArrays,
    margin: float,
) -> np.ndarray:
    """Symmetric mask of roadmap edges that clear every obstacle at time 0."""
    n = len(nodes)
    iu, ju = np.triu_indices(n, 1)
    xs = np.array([p.x for p in nodes])
    ys = np.array([p.y for p in nodes])
    zero = np.zeros(len(iu))
    pair_free = segments_clear(
        xs[iu], ys[iu], xs[ju] - xs[iu], ys[ju] - ys[iu], np.array(lengths)[iu, ju],
        zero, zero, obstacles, margin,
    )
    free = np.zeros((n, n), dtype=bool)
    free[iu, ju] = pair_free
    free[ju, iu] = pair_free
    return free


def _seed_time_clear(
    waypoints: Sequence[Vec2],
    obstacles: _ObstacleArrays,
    margin: float,
    speed: float,
) -> bool:
    """Would this polyline, traversed at constant ``speed``, dodge predictions?"""
    xs = np.array([w.x for w in waypoints])
    ys = np.array([w.y for w in waypoints])
    lengths = np.array([a.distance_to(b) for a, b in zip(waypoints[:-1], waypoints[1:])])
    times = np.concatenate(([0.0], np.cumsum(lengths / speed)))
    clear = segments_clear(
        xs[:-1], ys[:-1], np.diff(xs), np.diff(ys), lengths, times[:-1], np.diff(times),
        obstacles, margin,
    )
    return bool(clear.all())


def enumerate_seed_paths(
    start: Vec2,
    goal: Vec2,
    obstacles: Sequence[ObstacleState],
    max_classes: int,
    margin: float,
    detour_factor: float = DETOUR_FACTOR,
    max_paths: int = MAX_PATHS_EXAMINED,
    conflict_speed: float | None = None,
) -> list[SeedPath]:
    """Return up to ``max_classes`` shortest-class seed paths, one per homotopy class.

    Builds a small roadmap (start, goal, two perpendicular detour points per
    obstacle), then enumerates loop-free roadmap paths in increasing length
    order, deduplicating by signature. The enumeration is A*-ordered: partial
    paths are keyed by length so far plus the straight-line distance to the
    goal, which never overestimates because every roadmap edge is straight,
    so complete paths still arrive shortest first. It stops after
    ``_MAX_HEAP_POPS`` heap pops. Classes whose paths are longer than
    ``LENGTH_CUTOFF_FACTOR`` times the shortest class are dropped: they are
    never competitive and ballooning detours would dominate the optimization
    budget.

    Signatures and collision checks use the obstacles at their given
    (reference-time) positions. When ``conflict_speed`` is set, the class
    representative additionally prefers the first path that also dodges the
    obstacles' *predicted* motion when traversed at that speed; a seed that
    starts clear of future crossings saves the optimizer from symmetric
    local traps. Returns an empty list when no collision-free path exists.
    """
    if max_classes < 1:
        raise ValueError("max_classes must be >= 1")
    nodes = [start, goal] + _detour_nodes(
        start, goal, obstacles, detour_factor, conflict_speed
    )
    coords = [p.as_tuple() for p in nodes]
    lengths = [[a.distance_to(b) for b in nodes] for a in nodes]
    arrays = _ObstacleArrays(obstacles)
    free = _free_matrix(nodes, lengths, arrays, margin)
    neighbors = [np.flatnonzero(row).tolist() for row in free]
    to_goal = [row[1] for row in lengths]  # admissible: edges are straight

    # A*-ordered enumeration of simple paths from node 0 (start) to node 1
    # (goal). Entries are (length + to_goal, waypoint key, node path, length);
    # ties break by lexicographic waypoint comparison so results are
    # deterministic.
    kept: list[SeedPath] = []
    clear_flags: list[bool] = []
    heap: list[tuple[float, tuple[tuple[float, float], ...], tuple[int, ...], float]] = [
        (to_goal[0], (coords[0],), (0,), 0.0)
    ]
    examined = 0
    pops = 0
    cutoff = math.inf

    def done() -> bool:
        if len(kept) < max_classes:
            return False
        return conflict_speed is None or all(clear_flags)

    while heap and not done() and examined < max_paths and pops < _MAX_HEAP_POPS:
        bound, key, path, length = heapq.heappop(heap)
        pops += 1
        if bound > cutoff:
            break  # no path left on the heap can finish short enough
        last = path[-1]
        if last == 1:
            examined += 1
            waypoints = tuple(nodes[i] for i in path)
            try:
                sig = winding_signature(waypoints, obstacles)
            except ValueError:
                continue
            match = next(
                (k for k, kp in enumerate(kept) if signatures_equivalent(sig, kp.signature)),
                None,
            )
            if match is None:
                if len(kept) < max_classes:
                    kept.append(SeedPath(waypoints, sig, length))
                    clear_flags.append(
                        conflict_speed is None
                        or _seed_time_clear(waypoints, arrays, margin, conflict_speed)
                    )
                    if len(kept) == 1:
                        cutoff = length * LENGTH_CUTOFF_FACTOR
            elif conflict_speed is not None and not clear_flags[match]:
                # Same class, longer path: upgrade only if it clears the
                # predicted motion that the current representative hits.
                if _seed_time_clear(waypoints, arrays, margin, conflict_speed):
                    kept[match] = SeedPath(waypoints, sig, length)
                    clear_flags[match] = True
            continue
        for nxt in neighbors[last]:
            if nxt in path:
                continue
            new_length = length + lengths[last][nxt]
            new_bound = new_length + to_goal[nxt]
            if new_bound > cutoff:
                continue
            heapq.heappush(
                heap, (new_bound, key + (coords[nxt],), path + (nxt,), new_length)
            )
    order = sorted(
        range(len(kept)),
        key=lambda k: (kept[k].length, tuple(w.as_tuple() for w in kept[k].waypoints)),
    )
    return [kept[k] for k in order]
