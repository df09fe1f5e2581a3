import heapq
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinoplan import homotopy, planner
from kinoplan.collision import _ObstacleArrays, segments_clear
from kinoplan.geometry import MotionModel, ObstacleState, Vec2
from kinoplan.homotopy import (
    _MAX_HEAP_POPS,
    DETOUR_FACTOR,
    LENGTH_CUTOFF_FACTOR,
    MAX_PATHS_EXAMINED,
    HomotopySignature,
    SeedPath,
    _conflict_anchors,
    _detour_nodes,
    _free_matrix,
    _Search,
    enumerate_seed_paths,
    signatures_equivalent,
    winding_signature,
)
from kinoplan.planner import PlanFailure, plan_once
from kinoplan.scenario_io import parse_scenario, parse_scenario_dict
from kinoplan.tracking import predict_position
from test_collision import ref_segment_is_free

TABLE1_OBSTACLES = (
    ObstacleState(Vec2(-2, 0)),
    ObstacleState(Vec2(2, 0)),
    ObstacleState(Vec2(0, 0)),
)
START, GOAL = Vec2(-4, 0), Vec2(4, 0)


def brute_force_winding(waypoints, center, steps_per_edge=2000):
    """Independent oracle: dense angle summation along the polyline."""
    total = 0.0
    prev = None
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        for k in range(steps_per_edge + 1):
            f = k / steps_per_edge
            p = (a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f)
            ang = math.atan2(p[1] - center.y, p[0] - center.x)
            if prev is not None:
                d = ang - prev
                while d > math.pi:
                    d -= 2 * math.pi
                while d <= -math.pi:
                    d += 2 * math.pi
                total += d
            prev = ang
    return total


class TestWindingSignature:
    def test_passes_above_gives_minus_pi(self):
        path = [Vec2(-4, 0), Vec2(0, 1), Vec2(4, 0)]
        sig = winding_signature(path, [ObstacleState(Vec2(0, 0))])
        assert sig.windings[0] == pytest.approx(-math.pi, abs=1e-9)
        assert sig.windings[0] == pytest.approx(
            brute_force_winding(path, Vec2(0, 0)), abs=1e-6
        )

    def test_mirror_passes_below_gives_plus_pi(self):
        path = [Vec2(-4, 0), Vec2(0, -1), Vec2(4, 0)]
        sig = winding_signature(path, [ObstacleState(Vec2(0, 0))])
        assert sig.windings[0] == pytest.approx(math.pi, abs=1e-9)

    def test_collinear_midpoint_does_not_change_winding(self):
        path = [Vec2(-4, 0), Vec2(0, 1), Vec2(4, 0)]
        refined = [Vec2(-4, 0), Vec2(-2, 0.5), Vec2(0, 1), Vec2(4, 0)]
        obs = [ObstacleState(Vec2(0.5, -0.5))]
        a = winding_signature(path, obs)
        b = winding_signature(refined, obs)
        assert a.windings[0] == pytest.approx(b.windings[0], abs=1e-9)

    def test_waypoint_at_center_rejected(self):
        with pytest.raises(ValueError):
            winding_signature([Vec2(-1, 0), Vec2(0, 0), Vec2(1, 0)], [ObstacleState(Vec2(0, 0))])

    @given(
        xs=st.lists(
            st.floats(min_value=-3.5, max_value=3.5, allow_nan=False), min_size=1, max_size=4
        ),
        ys=st.lists(
            st.floats(min_value=0.3, max_value=2.5, allow_nan=False), min_size=1, max_size=4
        ),
        split=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=60)
    def test_refinement_invariance(self, xs, ys, split):
        n = min(len(xs), len(ys))
        inner = [Vec2(x, y) for x, y in sorted(zip(xs[:n], ys[:n]))]
        path = [START] + inner + [GOAL]
        obs = [ObstacleState(Vec2(0, 0))]
        base = winding_signature(path, obs).windings[0]
        # insert a point on an existing segment
        a, b = path[0], path[1]
        mid = Vec2(a.x + (b.x - a.x) * split, a.y + (b.y - a.y) * split)
        refined = [path[0], mid] + path[1:]
        assert winding_signature(refined, obs).windings[0] == pytest.approx(base, abs=1e-9)


class TestSignaturesEquivalent:
    def test_identity(self):
        sig = HomotopySignature((0.3, -1.2))
        assert signatures_equivalent(sig, sig)

    def test_opposite_sides_differ(self):
        assert not signatures_equivalent(
            HomotopySignature((-math.pi,)), HomotopySignature((math.pi,))
        )

    def test_small_perturbation_equivalent(self):
        assert signatures_equivalent(
            HomotopySignature((-math.pi,)), HomotopySignature((-math.pi + 0.09,))
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            signatures_equivalent(HomotopySignature((0.0,)), HomotopySignature((0.0, 0.0)))


class TestEnumerateSeedPaths:
    def test_no_obstacles_single_straight_path(self):
        seeds = enumerate_seed_paths(START, GOAL, [], 5, 0.0)
        assert len(seeds) == 1
        assert seeds[0].waypoints == (START, GOAL)
        assert seeds[0].length == pytest.approx(8.0)

    def test_single_blocking_obstacle_two_classes(self):
        obs = [ObstacleState(Vec2(0, 0))]
        seeds = enumerate_seed_paths(START, GOAL, obs, 5, 0.0)
        assert len(seeds) == 2
        assert not signatures_equivalent(seeds[0].signature, seeds[1].signature)

    def test_table1_layout_yields_exactly_five_classes(self):
        seeds = enumerate_seed_paths(START, GOAL, TABLE1_OBSTACLES, 5, 0.0)
        assert len(seeds) == 5
        for i in range(5):
            for j in range(i + 1, 5):
                assert not signatures_equivalent(seeds[i].signature, seeds[j].signature)

    def test_respects_class_cap(self):
        seeds = enumerate_seed_paths(START, GOAL, TABLE1_OBSTACLES, 4, 0.0)
        assert len(seeds) == 4
        seeds = enumerate_seed_paths(START, GOAL, TABLE1_OBSTACLES, 1, 0.0)
        assert len(seeds) == 1

    def test_sorted_by_length_and_deterministic(self):
        a = enumerate_seed_paths(START, GOAL, TABLE1_OBSTACLES, 5, 0.0)
        b = enumerate_seed_paths(START, GOAL, TABLE1_OBSTACLES, 5, 0.0)
        assert [s.waypoints for s in a] == [s.waypoints for s in b]
        lengths = [s.length for s in a]
        assert lengths == sorted(lengths)

    def test_paths_are_collision_free(self):
        margin = 0.05
        seeds = enumerate_seed_paths(START, GOAL, TABLE1_OBSTACLES, 5, margin)
        for seed in seeds:
            for a, b in zip(seed.waypoints[:-1], seed.waypoints[1:]):
                assert ref_segment_is_free(TABLE1_OBSTACLES, a, b, 0.0, 0.0, margin)

    def test_blocked_start_returns_empty(self):
        obs = [ObstacleState(Vec2(-4, 0), safety_radius=0.5)]
        assert enumerate_seed_paths(START, GOAL, obs, 3, 0.0) == []

    def test_signature_consistent_with_waypoints(self):
        seeds = enumerate_seed_paths(START, GOAL, TABLE1_OBSTACLES, 5, 0.0)
        for seed in seeds:
            recomputed = winding_signature(seed.waypoints, TABLE1_OBSTACLES)
            assert signatures_equivalent(recomputed, seed.signature)

    def test_time_clear_preference_dodges_crossing(self):
        # obstacle parked ahead is fine at t=0 but meets a v=0.5 traversal head-on
        obs = [
            ObstacleState(
                Vec2(4, 0), Vec2(-0.5, 0), model=MotionModel.CONST_VELOCITY, safety_radius=0.5
            )
        ]
        plain = enumerate_seed_paths(Vec2(-4, 0), Vec2(3, 0), obs, 2, 0.0)
        aware = enumerate_seed_paths(Vec2(-4, 0), Vec2(3, 0), obs, 2, 0.0, conflict_speed=0.5)
        assert plain and aware
        assert len(plain[0].waypoints) == 2  # shortest representative: straight
        assert len(aware[0].waypoints) > 2  # upgraded to a dodging representative


# Six-obstacle corridor layout (start (-7, 0), goal (7, 0), two classes wanted).
# Length-ordered enumeration expands every partial path shorter than the
# shortest complete one here and returns [] at the 50,000-pop hard stop.
CORRIDOR_DOC = {
    "start": [-7.0, 0.0],
    "goal": [7.0, 0.0],
    "max_classes": 2,
    "obstacles": [
        {"position": [-5.14625430235504, 0.13897349477489307], "model": "constant_velocity",
         "velocity": [0.04148670747961034, -0.10515228799984111]},
        {"position": [-2.8944901524093543, -0.09797238970423133],
         "model": "constant_acceleration",
         "velocity": [-0.17175323172653423, 0.08351835364275241],
         "acceleration": [-0.008044127588743436, -0.009159381109168191]},
        {"position": [-1.0018259651632235, -0.02020357408450474],
         "model": "constant_acceleration",
         "velocity": [-0.038572444330417184, -0.013285857975157684],
         "acceleration": [-0.005263044418326629, -0.013308394305556423]},
        {"position": [1.060637189089105, 0.11548934045420528], "model": "static"},
        {"position": [2.837543834709694, -0.18866100939119748], "model": "constant_velocity",
         "velocity": [0.01239862213386509, 0.02653530212398308]},
        {"position": [5.134306041567948, -0.02689317283797865], "model": "static"},
    ],
}


class TestCorridorRegression:
    def test_six_obstacle_corridor_finds_two_classes(self):
        sc = parse_scenario_dict(CORRIDOR_DOC)
        seeds = enumerate_seed_paths(
            sc.start, sc.goal, sc.obstacles, sc.max_classes, sc.margin,
            conflict_speed=sc.limits.v_max,
        )
        assert len(seeds) == 2
        assert not signatures_equivalent(seeds[0].signature, seeds[1].signature)

    def test_six_obstacle_corridor_plans(self):
        sc = parse_scenario_dict(CORRIDOR_DOC)
        try:
            plan_once(sc, sc.obstacles)
        except PlanFailure as exc:
            assert exc.reason != "no_path"


def _oracle_winding(waypoints, obstacles):
    """Winding signature as first written, on Vec2 arithmetic."""
    windings = []
    for obs in obstacles:
        c = obs.position
        total = 0.0
        prev = waypoints[0] - c
        if prev.norm() <= 1e-6:
            raise ValueError("waypoint coincides with an obstacle center")
        for wp in waypoints[1:]:
            cur = wp - c
            if cur.norm() <= 1e-6:
                raise ValueError("waypoint coincides with an obstacle center")
            total += math.atan2(prev.cross(cur), prev.dot(cur))
            prev = cur
        windings.append(total)
    return HomotopySignature(tuple(windings))


def _oracle_time_clear(waypoints, obstacles, margin, speed):
    t = 0.0
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        dt = a.distance_to(b) / speed
        if not ref_segment_is_free(obstacles, a, b, t, t + dt, margin):
            return False
        t += dt
    return True


def _oracle_enumerate(start, goal, obstacles, max_classes, margin, conflict_speed):
    """Length-ordered best-first enumeration with pairwise segment checks.

    Returns (seeds, capped); ``capped`` is True when it hit the pop limit.
    """
    nodes = [start, goal] + _detour_nodes(start, goal, obstacles, conflict_speed)
    n = len(nodes)
    free = [[False] * n for _ in range(n)]
    lengths = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ok = ref_segment_is_free(obstacles, nodes[i], nodes[j], 0.0, 0.0, margin)
            free[i][j] = free[j][i] = ok
            lengths[i][j] = lengths[j][i] = nodes[i].distance_to(nodes[j])
    kept, clear_flags = [], []
    heap = [(0.0, (start.as_tuple(),), (0,))]
    examined = pops = 0
    cutoff = math.inf

    def done():
        return len(kept) >= max_classes and (conflict_speed is None or all(clear_flags))

    while heap and not done() and examined < MAX_PATHS_EXAMINED and pops < 50_000:
        length, key, path = heapq.heappop(heap)
        pops += 1
        if length > cutoff:
            break
        last = path[-1]
        if last == 1:
            examined += 1
            waypoints = tuple(nodes[i] for i in path)
            try:
                sig = _oracle_winding(waypoints, obstacles)
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
                        or _oracle_time_clear(waypoints, obstacles, margin, conflict_speed)
                    )
                    if len(kept) == 1:
                        cutoff = length * LENGTH_CUTOFF_FACTOR
            elif conflict_speed is not None and not clear_flags[match]:
                if _oracle_time_clear(waypoints, obstacles, margin, conflict_speed):
                    kept[match] = SeedPath(waypoints, sig, length)
                    clear_flags[match] = True
            continue
        for nxt in range(n):
            if nxt in path or not free[last][nxt]:
                continue
            new_length = length + lengths[last][nxt]
            if new_length > cutoff:
                continue
            heapq.heappush(heap, (new_length, key + (nodes[nxt].as_tuple(),), path + (nxt,)))
    kept.sort(key=lambda s: (s.length, tuple(w.as_tuple() for w in s.waypoints)))
    return kept, pops >= 50_000


coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
small = st.floats(min_value=-0.3, max_value=0.3, allow_nan=False)
obstacle_st = st.builds(
    lambda x, y, vx, vy, ax, ay, r: ObstacleState(
        Vec2(x, y), Vec2(vx, vy), Vec2(0.1 * ax, 0.1 * ay), safety_radius=r,
        model=MotionModel.CONST_ACCELERATION,
    ),
    coord,
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    small, small, small, small,
    st.floats(min_value=0.2, max_value=0.8, allow_nan=False),
)


class TestAgainstLengthOrderedOracle:
    @given(
        obstacles=st.lists(obstacle_st, min_size=1, max_size=4),
        max_classes=st.integers(min_value=1, max_value=5),
        margin=st.sampled_from([0.0, 0.05]),
        conflict_speed=st.sampled_from([None, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_seeds_as_oracle(self, obstacles, max_classes, margin, conflict_speed):
        expected, capped = _oracle_enumerate(
            START, GOAL, obstacles, max_classes, margin, conflict_speed
        )
        assume(not capped)
        got = enumerate_seed_paths(
            START, GOAL, obstacles, max_classes, margin, conflict_speed=conflict_speed
        )
        assert [s.waypoints for s in got] == [s.waypoints for s in expected]
        assert [s.signature for s in got] == [s.signature for s in expected]
        assert [s.length for s in got] == [s.length for s in expected]

    @given(
        obstacles=st.lists(obstacle_st, min_size=0, max_size=4),
        margin=st.sampled_from([0.0, 0.05]),
        conflict_speed=st.sampled_from([None, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_free_matrix_matches_pairwise_checks(self, obstacles, margin, conflict_speed):
        nodes = [START, GOAL] + _detour_nodes(START, GOAL, obstacles, conflict_speed)
        lengths = [[a.distance_to(b) for b in nodes] for a in nodes]
        free = _free_matrix(nodes, lengths, _ObstacleArrays(obstacles), margin)
        n = len(nodes)
        expected = np.array([
            [i != j and ref_segment_is_free(obstacles, nodes[i], nodes[j], 0.0, 0.0, margin)
             for j in range(n)]
            for i in range(n)
        ])
        assert np.array_equal(free, expected)

    @given(
        obstacles=st.lists(obstacle_st, min_size=1, max_size=4),
        points=st.lists(st.tuples(coord, coord), min_size=2, max_size=6),
        t0=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        speed=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_timed_segments_match_segment_is_free(self, obstacles, points, t0, speed):
        pts = [Vec2(x, y) for x, y in points]
        lengths = [a.distance_to(b) for a, b in zip(pts[:-1], pts[1:])]
        t_a = [t0 + sum(lengths[:k]) / speed for k in range(len(lengths))]
        t_b = [t + d / speed for t, d in zip(t_a, lengths)]
        xs = np.array([p.x for p in pts])
        ys = np.array([p.y for p in pts])
        t_a, t_b = np.array(t_a), np.array(t_b)
        got = segments_clear(
            xs[:-1], ys[:-1], xs[1:] - xs[:-1], ys[1:] - ys[:-1], np.array(lengths),
            t_a, t_b - t_a, _ObstacleArrays(obstacles), 0.0,
        )
        expected = [
            ref_segment_is_free(obstacles, a, b, ta, tb, 0.0)
            for a, b, ta, tb in zip(pts[:-1], pts[1:], t_a, t_b)
        ]
        assert got.tolist() == expected


def _frozen_timed_segments(waypoints, speed):
    """The ``segments_clear`` arrays of a polyline traversed at ``speed``."""
    xs = np.array([w.x for w in waypoints])
    ys = np.array([w.y for w in waypoints])
    lengths = np.array([a.distance_to(b) for a, b in zip(waypoints[:-1], waypoints[1:])])
    times = np.concatenate(([0.0], np.cumsum(lengths / speed)))
    return xs[:-1], ys[:-1], np.diff(xs), np.diff(ys), lengths, times[:-1], np.diff(times)


def _frozen_time_clear(waypoints, obstacles, margin, speed):
    """Frozen copy of the whole-path time check that the verdict memo replaced."""
    clear = segments_clear(*_frozen_timed_segments(waypoints, speed), obstacles, margin)
    return bool(clear.all())


def _frozen_enumerate(start, goal, obstacles, max_classes, margin, conflict_speed=None):
    """Frozen copy of ``enumerate_seed_paths`` before its verdict memo and
    edge winding increments: every examined path gets its own
    ``winding_signature``, and every time check sweeps the whole path."""
    nodes = [start, goal] + _detour_nodes(start, goal, obstacles, conflict_speed)
    coords = [p.as_tuple() for p in nodes]
    lengths = [[a.distance_to(b) for b in nodes] for a in nodes]
    arrays = _ObstacleArrays(obstacles)
    free = _free_matrix(nodes, lengths, arrays, margin)
    neighbors = [np.flatnonzero(row).tolist() for row in free]
    to_goal = [row[1] for row in lengths]
    kept, clear_flags = [], []
    heap = [(to_goal[0], (coords[0],), (0,), 0.0)]
    examined = pops = 0
    cutoff = math.inf

    def done():
        return len(kept) >= max_classes and (conflict_speed is None or all(clear_flags))

    while heap and not done() and examined < MAX_PATHS_EXAMINED and pops < _MAX_HEAP_POPS:
        bound, key, path, length = heapq.heappop(heap)
        pops += 1
        if bound > cutoff:
            break
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
                        or _frozen_time_clear(waypoints, arrays, margin, conflict_speed)
                    )
                    if len(kept) == 1:
                        cutoff = length * LENGTH_CUTOFF_FACTOR
            elif conflict_speed is not None and not clear_flags[match]:
                if _frozen_time_clear(waypoints, arrays, margin, conflict_speed):
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
            heapq.heappush(heap, (new_bound, key + (coords[nxt],), path + (nxt,), new_length))
    kept.sort(key=lambda s: (s.length, tuple(w.as_tuple() for w in s.waypoints)))
    return kept


def _exact(seeds):
    """Seeds with every float as ``float.hex``, so equality means bit for bit."""
    return [
        (
            tuple((float(w.x).hex(), float(w.y).hex()) for w in s.waypoints),
            tuple(w.hex() for w in s.signature.windings),
            s.length.hex(),
        )
        for s in seeds
    ]


def _assert_same_as_frozen(start, goal, obstacles, max_classes, margin, conflict_speed):
    expected = _frozen_enumerate(start, goal, obstacles, max_classes, margin, conflict_speed)
    got = enumerate_seed_paths(
        start, goal, obstacles, max_classes, margin, conflict_speed=conflict_speed
    )
    assert _exact(got) == _exact(expected)
    return got


def _scenario_args(sc):
    return sc.start, sc.goal, sc.obstacles, sc.max_classes, sc.margin, sc.limits.v_max


mixed_obstacle_st = st.builds(
    lambda model, x, y, vx, vy, ax, ay, r: ObstacleState(
        Vec2(x, y),
        Vec2(vx, vy) if model != MotionModel.STATIC else Vec2(0.0, 0.0),
        Vec2(ax, ay) if model == MotionModel.CONST_ACCELERATION else Vec2(0.0, 0.0),
        safety_radius=r,
        model=model,
    ),
    st.sampled_from(list(MotionModel)),
    coord,
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    small, small,
    st.floats(min_value=-0.03, max_value=0.03, allow_nan=False),
    st.floats(min_value=-0.03, max_value=0.03, allow_nan=False),
    st.floats(min_value=0.2, max_value=0.8, allow_nan=False),
)

# Two obstacles moving head-on along the start-goal line: every short path
# in either class meets one of them, so both representatives are upgraded
# to longer time-clear paths, and later paths are rejected through segments
# already found blocked in paths examined before them.
HEAD_ON = (
    ObstacleState(Vec2(0, 0), Vec2(0.25, 0), model=MotionModel.CONST_VELOCITY),
    ObstacleState(Vec2(2, 0), Vec2(-0.5, 0), model=MotionModel.CONST_VELOCITY),
)


class TestAgainstFrozenEnumeration:
    @given(
        obstacles=st.lists(mixed_obstacle_st, min_size=1, max_size=6),
        max_classes=st.integers(min_value=1, max_value=5),
        margin=st.sampled_from([0.0, 0.05]),
        conflict_speed=st.sampled_from([None, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_seeds_bit_for_bit(self, obstacles, max_classes, margin, conflict_speed):
        _assert_same_as_frozen(START, GOAL, obstacles, max_classes, margin, conflict_speed)

    def test_corridor_doc(self):
        _assert_same_as_frozen(*_scenario_args(parse_scenario_dict(CORRIDOR_DOC)))

    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_bundled_scenarios(self, scenario_paths, name):
        _assert_same_as_frozen(*_scenario_args(parse_scenario(str(scenario_paths[name]))))

    def test_closed_loop_replans(self, scenario_paths, monkeypatch):
        class Enough(Exception):
            pass

        calls = []

        def recording(*args, **kwargs):
            if len(calls) == 15:
                raise Enough
            calls.append((args, kwargs))
            return enumerate_seed_paths(*args, **kwargs)

        monkeypatch.setattr(planner, "enumerate_seed_paths", recording)
        with pytest.raises(Enough):
            planner.simulate_run(parse_scenario(str(scenario_paths["scenario3"])), seed=0)
        for (start, goal, obstacles, max_classes, margin), kwargs in calls:
            _assert_same_as_frozen(
                start, goal, obstacles, max_classes, margin, kwargs["conflict_speed"]
            )


class TestVerdictBranches:
    def test_representatives_upgraded_to_later_time_clear_paths(self):
        seeds = _assert_same_as_frozen(START, GOAL, HEAD_ON, 2, 0.0, 0.5)
        shortest = enumerate_seed_paths(START, GOAL, HEAD_ON, 2, 0.0)
        assert [[w.as_tuple() for w in s.waypoints] for s in shortest] == [
            [(-4, 0), (2.0, -1.0), (4, 0)],
            [(-4, 0), (2.0, 1.0), (4, 0)],
        ]
        assert [[w.as_tuple() for w in s.waypoints] for s in seeds] == [
            [(-4, 0), (0.0, -1.0), (2.0, -1.0), (4.0, -1.0), (4, 0)],
            [(-4, 0), (0.0, 1.0), (2.0, 1.0), (4.0, 1.0), (4, 0)],
        ]
        for upgraded, first in zip(seeds, shortest):
            assert signatures_equivalent(upgraded.signature, first.signature)
            assert upgraded.length > first.length

    def test_path_rejected_through_blocked_shared_prefix(self, monkeypatch):
        swept, verdicts = set(), []
        sweep, time_clear = _Search.sweep, _Search.time_clear

        def recording_sweep(self, paths):
            swept.update(paths)
            sweep(self, paths)

        def recording_time_clear(self, path):
            verdict = time_clear(self, path)
            verdicts.append((path, verdict))
            return verdict

        monkeypatch.setattr(_Search, "sweep", recording_sweep)
        monkeypatch.setattr(_Search, "time_clear", recording_time_clear)
        _assert_same_as_frozen(START, GOAL, HEAD_ON, 2, 0.0, 0.5)
        rejected_unswept = {p for p, v in verdicts if v is False and p not in swept}
        assert rejected_unswept
        # Each was rejected through a blocked segment decided for a path
        # swept before it, which shares the prefix ending with that segment.
        for path in rejected_unswept:
            assert any(
                other[:k] == path[:k]
                for other in swept
                for k in range(2, len(path))
            )

    def test_swept_segments_carry_whole_path_floats(self, monkeypatch):
        # A memoized verdict must come from the very floats that a sweep of
        # the whole path gives its segment: start times from the cumulative
        # sum, durations as differences of consecutive times.
        rows, swept = set(), []

        def recording_segments_clear(*args):
            rows.update(zip(*(a.tolist() for a in args[:7])))
            return segments_clear(*args)

        sweep = _Search.sweep

        def recording_sweep(self, paths):
            swept.extend(self.waypoints(p) for p in paths)
            sweep(self, paths)

        monkeypatch.setattr(homotopy, "segments_clear", recording_segments_clear)
        monkeypatch.setattr(_Search, "sweep", recording_sweep)
        sc = parse_scenario_dict(CORRIDOR_DOC)
        _assert_same_as_frozen(*_scenario_args(sc))
        assert swept
        for waypoints in swept:
            segments = _frozen_timed_segments(waypoints, sc.limits.v_max)
            assert set(zip(*(a.tolist() for a in segments))) <= rows


def _frozen_conflict_anchor(start, direction, span, obs, speed, factor):
    """Frozen copy of the scalar ``_conflict_anchor`` that ``_conflict_anchors``
    replaced: 41 ``predict_position`` calls and ``math.hypot`` distances."""
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


def _anchor_hex(anchor):
    return None if anchor is None else (anchor.x.hex(), anchor.y.hex())


def _assert_anchors_frozen(start, goal, obstacles, speed, factor=DETOUR_FACTOR):
    direction = goal - start
    span = direction.norm()
    got = _conflict_anchors(start, direction, span, obstacles, speed, factor)
    expected = [
        _frozen_conflict_anchor(start, direction, span, obs, speed, factor) for obs in obstacles
    ]
    assert [_anchor_hex(a) for a in got] == [_anchor_hex(a) for a in expected]
    return got


class TestConflictAnchors:
    def test_same_floats_as_frozen_scalar_version(self):
        found = set()

        @given(
            obstacles=st.lists(mixed_obstacle_st, min_size=0, max_size=6),
            goal=st.tuples(coord, coord),
            speed=st.floats(min_value=0.1, max_value=2.0),
            factor=st.sampled_from([DETOUR_FACTOR, 1.0]),
        )
        @settings(max_examples=100, deadline=None)
        def check(obstacles, goal, speed, factor):
            assume(Vec2(*goal) != START)
            got = _assert_anchors_frozen(START, Vec2(*goal), obstacles, speed, factor)
            found.update(a is None for a in got)

        check()
        assert found == {True, False}  # both outcomes were compared

    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_bundled_scenarios(self, scenario_paths, name):
        sc = parse_scenario(str(scenario_paths[name]))
        _assert_anchors_frozen(sc.start, sc.goal, sc.obstacles, sc.limits.v_max)

    def test_corridor_doc(self):
        sc = parse_scenario_dict(CORRIDOR_DOC)
        _assert_anchors_frozen(sc.start, sc.goal, sc.obstacles, sc.limits.v_max)
