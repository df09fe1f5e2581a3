"""Winding-angle homotopy signatures and enumeration of class-distinct seed paths.

A path's signature is the accumulated signed angle swept around each obstacle
center. Two paths with the same endpoints are homotopy-equivalent exactly when
their windings agree per obstacle up to less than a half turn; passing an
obstacle on opposite sides differs by a full turn.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from operator import add, sub
from typing import Sequence

import numpy as np

from .collision import _ObstacleArrays, segments_clear
from .geometry import ObstacleState, Vec2

DETOUR_FACTOR = 2.0          # detour nodes sit at this multiple of the safety radius
MAX_PATHS_EXAMINED = 200     # complete roadmap paths inspected before giving up
LENGTH_CUTOFF_FACTOR = 3.0   # drop classes longer than this multiple of the shortest
_MAX_HEAP_POPS = 50_000      # hard stop against pathological roadmaps
_CENTER_EPS = 1e-6
_SWEEP_AHEAD = 8             # most complete paths swept ahead with one that needs a verdict


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
    conflict_speed: float | None,
) -> list[Vec2]:
    direction = goal - start
    norm = direction.norm()
    if norm == 0.0:
        raise ValueError("start and goal coincide")
    perp = Vec2(-direction.y / norm, direction.x / norm)
    anchors: dict[int, Vec2 | None] = {}
    if conflict_speed is not None:
        moving = [
            k for k, obs in enumerate(obstacles)
            if obs.velocity.norm() > 0.0 or obs.acceleration.norm() > 0.0
        ]
        anchors = dict(zip(moving, _conflict_anchors(
            start, direction, norm, [obstacles[k] for k in moving], conflict_speed, DETOUR_FACTOR
        )))
    nodes = []
    for k, obs in enumerate(obstacles):
        offset = perp.scaled(obs.safety_radius * DETOUR_FACTOR)
        centers = [obs.position]
        anchor = anchors.get(k)
        if anchor is not None and anchor.distance_to(obs.position) > 0.1 * obs.safety_radius:
            centers.append(anchor)
        for c in centers:
            nodes.append(c + offset)
            nodes.append(c - offset)
    return nodes


_ANCHOR_STEPS = 40  # the nominal pass is checked at 41 evenly spaced times


def _conflict_anchors(
    start: Vec2,
    direction: Vec2,
    span: float,
    obstacles: Sequence[ObstacleState],
    speed: float,
    factor: float,
) -> list[Vec2 | None]:
    """Each obstacle's predicted position at its closest approach to a
    nominal straight start-goal traversal at constant ``speed``; None where
    the nominal pass never comes near it. Moving obstacles conflict where
    they WILL be, not where they are, so detours must be anchored there.

    The 41 predicted positions of every obstacle come from one array pass, with
    the floats of ``tracking.predict_position`` (same operations, same
    order). The distances stay ``math.hypot``, whose floats ``np.hypot``
    does not always give.
    """
    horizon = span / speed
    t = horizon * np.arange(_ANCHOR_STEPS + 1) / _ANCHOR_STEPS
    f = speed * t / span
    px = (start.x + direction.x * f).tolist()
    py = (start.y + direction.y * f).tolist()
    arrays = _ObstacleArrays(obstacles)
    t = t[:, None]
    c = arrays.pos + arrays.vel * t + 0.5 * arrays.acc * t * t  # (2, 41, M)
    anchors = []
    for obs, cx, cy in zip(obstacles, c[0].T.tolist(), c[1].T.tolist()):
        d = list(map(math.hypot, map(sub, px, cx), map(sub, py, cy)))
        k = d.index(min(d))
        anchors.append(None if d[k] > obs.safety_radius * factor else Vec2(cx[k], cy[k]))
    return anchors


def _lengths(coords: Sequence[tuple[float, float]]) -> list[list[float]]:
    """Pairwise ``Vec2.distance_to`` of the roadmap nodes: each pair once,
    mirrored, since ``math.hypot`` ignores the signs of its arguments."""
    n = len(coords)
    lengths = [[0.0] * n for _ in range(n)]
    for i, (xi, yi) in enumerate(coords):
        row = lengths[i]
        for j in range(i + 1, n):
            xj, yj = coords[j]
            row[j] = lengths[j][i] = math.hypot(xi - xj, yi - yj)
    return lengths


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


class _Search:
    """The roadmap of one enumeration, its A* heap and its memos.

    Edge winding increments and timed-segment verdicts are computed once per
    call and kept for it only: obstacles move between calls.
    """

    def __init__(
        self,
        start: Vec2,
        goal: Vec2,
        obstacles: Sequence[ObstacleState],
        margin: float,
        conflict_speed: float | None,
    ) -> None:
        self.nodes = [start, goal] + _detour_nodes(start, goal, obstacles, conflict_speed)
        self.coords = [p.as_tuple() for p in self.nodes]
        self.lengths = _lengths(self.coords)
        self.arrays = _ObstacleArrays(obstacles)
        free = _free_matrix(self.nodes, self.lengths, self.arrays, margin)
        self.neighbors = [np.flatnonzero(row).tolist() for row in free]
        self.to_goal = [row[1] for row in self.lengths]  # admissible: edges are straight
        self.margin = margin
        self.speed = conflict_speed
        self.centers = [o.position.as_tuple() for o in obstacles]
        # Nodes that coincide with an obstacle center, where _windings raises.
        self.centered = {
            i for i, (x, y) in enumerate(self.coords)
            if any(math.hypot(x - cx, y - cy) <= _CENTER_EPS for cx, cy in self.centers)
        }
        self.cutoff = math.inf  # set by the caller once the shortest class is known
        self._turns: dict[tuple[int, int], list[float]] = {}
        self._verdicts: dict[tuple[int, ...], bool] = {}
        self.sweeps = 0  # sweep calls so far; the caller widens its look-ahead by it

    def waypoints(self, path: tuple[int, ...]) -> tuple[Vec2, ...]:
        return tuple(self.nodes[i] for i in path)

    def _extend(self, windings: list[float], i: int, j: int) -> list[float]:
        """``windings`` carried along edge i -> j: the sum of ``_windings``,
        from one ``math.atan2`` increment per edge and obstacle."""
        turn = self._turns.get((i, j))
        if turn is None:
            (xi, yi), (xj, yj) = self.coords[i], self.coords[j]
            turn = self._turns[i, j] = [
                math.atan2(px * qy - py * qx, px * qx + py * qy)
                for px, py, qx, qy in (
                    (xi - cx, yi - cy, xj - cx, yj - cy) for cx, cy in self.centers
                )
            ]
        return list(map(add, windings, turn))

    def complete_paths(self):
        """Yield (node path, length, signature) for each complete path, in
        A* order; the signature is None where ``winding_signature`` raises.

        Entries are (length + to_goal, waypoint key, node path, length,
        family, rank); ties break by lexicographic waypoint comparison so
        results are deterministic. A family is the parent's (key, path,
        windings, children), its children sorted in heap order. Only a
        family's next child is on the heap: popping child ``rank`` pushes
        child ``rank + 1``. That pops the same entries in the same order as
        pushing every child at once, since each child still enters the heap
        before it can be the smallest entry.
        """
        coords, lengths, neighbors, to_goal = (
            self.coords, self.lengths, self.neighbors, self.to_goal
        )
        push, pop = heapq.heappush, heapq.heappop
        heap = [(to_goal[0], (coords[0],), (0,), 0.0, None, 0)]
        pops = 0
        while heap and pops < _MAX_HEAP_POPS:
            bound, key, path, length, family, rank = pop(heap)
            pops += 1
            if bound > self.cutoff:
                return  # no path left on the heap can finish short enough
            if family is None:
                windings = [0.0] * len(self.centers)
            else:
                parent_key, parent_path, windings, children = family
                if rank + 1 < len(children):
                    b, c, nxt, l = children[rank + 1]
                    if b <= self.cutoff:
                        push(heap, (b, parent_key + (c,), parent_path + (nxt,), l,
                                    family, rank + 1))
                windings = self._extend(windings, parent_path[-1], path[-1])
            last = path[-1]
            if last == 1:
                if not self.centered.isdisjoint(path):
                    yield path, length, None
                else:
                    yield path, length, HomotopySignature(tuple(windings))
                continue
            row = lengths[last]
            children = []
            for nxt in neighbors[last]:
                if nxt in path:
                    continue
                new_length = length + row[nxt]
                new_bound = new_length + to_goal[nxt]
                if new_bound <= self.cutoff:
                    children.append((new_bound, coords[nxt], nxt, new_length))
            if children:
                children.sort()
                b, c, nxt, l = children[0]
                push(heap, (b, key + (c,), path + (nxt,), l,
                            (key, path, windings, children), 0))

    def time_clear(self, path: tuple[int, ...]) -> bool | None:
        """Does the path, traversed at ``conflict_speed``, dodge the
        predicted obstacles? None while one of its segments is undecided."""
        undecided = False
        for k in range(2, len(path) + 1):
            verdict = self._verdicts.get(path[:k])
            if verdict is None:
                undecided = True
            elif not verdict:
                return False
        return None if undecided else True

    def sweep(self, paths: list[tuple[int, ...]]) -> None:
        """Decide every undecided timed segment of ``paths`` in one swept
        check. A verdict is keyed by the node path that ends with its
        segment: that prefix fixes the segment's start time."""
        coords, lengths = self.coords, self.lengths
        keys: dict[tuple[int, ...], None] = {}
        rows = []
        for path in paths:
            t = 0.0
            for k in range(1, len(path)):
                i, j = path[k - 1], path[k]
                # The floats of np.cumsum(lengths / speed) after a leading 0.0.
                t_next = t + lengths[i][j] / self.speed
                key = path[:k + 1]
                if key not in self._verdicts and key not in keys:
                    keys[key] = None
                    (xi, yi), (xj, yj) = coords[i], coords[j]
                    rows.append((xi, yi, xj - xi, yj - yi, lengths[i][j], t, t_next - t))
                t = t_next
        clear = segments_clear(*np.array(rows).T, self.arrays, self.margin)
        self.sweeps += 1
        self._verdicts.update(zip(keys, clear.tolist()))


def enumerate_seed_paths(
    start: Vec2,
    goal: Vec2,
    obstacles: Sequence[ObstacleState],
    max_classes: int,
    margin: float,
    conflict_speed: float | None = None,
) -> list[SeedPath]:
    """Return up to ``max_classes`` shortest-class seed paths, one per homotopy class.

    Builds a small roadmap (start, goal, two perpendicular detour points per
    obstacle, ``DETOUR_FACTOR`` safety radii off its center), then
    enumerates loop-free roadmap paths in increasing length order,
    deduplicating by signature. The enumeration is A*-ordered: partial paths
    are keyed by length so far plus the straight-line distance to the goal,
    which never overestimates because every roadmap edge is straight, so
    complete paths still arrive shortest first. It stops after
    ``MAX_PATHS_EXAMINED`` complete paths or ``_MAX_HEAP_POPS`` heap pops.
    Classes whose paths are longer than ``LENGTH_CUTOFF_FACTOR`` times the
    shortest class are dropped: they are never competitive and ballooning
    detours would dominate the optimization budget.

    Signatures and collision checks use the obstacles at their given
    (reference-time) positions. When ``conflict_speed`` is set, the class
    representative additionally prefers the first path that also dodges the
    obstacles' *predicted* motion when traversed at that speed; a seed that
    starts clear of future crossings saves the optimizer from symmetric
    local traps. Returns an empty list when no collision-free path exists.

    Within one call, each edge's winding increments are computed once and
    each timed segment is swept at most once (see ``_Search``), and the
    seeds are bit for bit those of checking every path on its own.
    """
    if max_classes < 1:
        raise ValueError("max_classes must be >= 1")
    search = _Search(start, goal, obstacles, margin, conflict_speed)
    stream = search.complete_paths()
    ahead: deque = deque()  # complete paths popped but not yet examined
    kept: list[SeedPath] = []
    clear_flags: list[bool] = []
    examined = 0

    def done() -> bool:
        if len(kept) < max_classes:
            return False
        return conflict_speed is None or all(clear_flags)

    def may_need_verdict(sig: HomotopySignature) -> bool:
        """Could a path with this signature still need a time verdict when
        its turn comes? Clear representatives never change; an unclear one
        may be replaced by a path of another signature."""
        for k, kp in enumerate(kept):
            if not clear_flags[k]:
                return True
            if signatures_equivalent(sig, kp.signature):
                return False
        return len(kept) < max_classes

    def is_time_clear(path: tuple[int, ...]) -> bool:
        verdict = search.time_clear(path)
        if verdict is None:
            # The pop order does not depend on any verdict, and the cutoff
            # is already set, so the next complete paths can be popped now
            # and their undecided segments swept along with this path's.
            # That pays off in calls that keep needing verdicts, so the
            # window starts at 0 and grows to 1, 3, 7 with each sweep.
            window = min(_SWEEP_AHEAD, (1 << search.sweeps) - 1)
            while len(ahead) < window and examined + len(ahead) < MAX_PATHS_EXAMINED:
                entry = next(stream, None)
                if entry is None:
                    break
                ahead.append(entry)
            search.sweep([path] + [
                p for p, _, sig in ahead
                if sig is not None and search.time_clear(p) is None and may_need_verdict(sig)
            ])
            verdict = search.time_clear(path)
        return verdict

    while not done() and examined < MAX_PATHS_EXAMINED:
        entry = ahead.popleft() if ahead else next(stream, None)
        if entry is None:
            break
        path, length, sig = entry
        examined += 1
        if sig is None:
            continue
        match = next(
            (k for k, kp in enumerate(kept) if signatures_equivalent(sig, kp.signature)),
            None,
        )
        if match is None:
            if len(kept) < max_classes:
                if not kept:
                    search.cutoff = length * LENGTH_CUTOFF_FACTOR
                clear = conflict_speed is None or is_time_clear(path)
                kept.append(SeedPath(search.waypoints(path), sig, length))
                clear_flags.append(clear)
        elif conflict_speed is not None and not clear_flags[match]:
            # Same class, longer path: upgrade only if it clears the
            # predicted motion that the current representative hits.
            if is_time_clear(path):
                kept[match] = SeedPath(search.waypoints(path), sig, length)
                clear_flags[match] = True
    order = sorted(
        range(len(kept)),
        key=lambda k: (kept[k].length, tuple(w.as_tuple() for w in kept[k].waypoints)),
    )
    return [kept[k] for k in order]
