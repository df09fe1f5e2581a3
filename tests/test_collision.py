import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinoplan.collision import (
    CHECK_STEP_M,
    CHECK_STEP_S,
    _instant_clear,
    _ObstacleArrays,
    _swept_clear,
    polyline_clear,
    segments_clear,
    sweep_samples,
)
from kinoplan.geometry import MotionModel, ObstacleState, Vec2
from kinoplan.homotopy import _free_matrix
from kinoplan.scenario_io import parse_scenario
from kinoplan.tracking import predict_position

coord = st.floats(min_value=-2.5, max_value=2.5, allow_nan=False)


def ref_segment_is_free(obstacles, a, b, t_a, t_b, margin):
    """Frozen copy of the per-segment check that ``segments_clear`` replaced.

    It samples like ``segments_clear`` but rounds the predicted center as
    ``0.5 * acc * t²`` and tests ``hypot > r + margin``, so the two may only
    disagree where a sample lies within rounding of the circle.
    """
    if t_b < t_a:
        raise ValueError("t_b must be >= t_a")
    if not obstacles:
        return True
    length = a.distance_to(b)
    steps = max(
        int(math.ceil(length / CHECK_STEP_M)),
        int(math.ceil((t_b - t_a) / CHECK_STEP_S)),
        1,
    )
    s = np.linspace(0.0, 1.0, steps + 1)
    px = a.x + (b.x - a.x) * s
    py = a.y + (b.y - a.y) * s
    times = t_a + (t_b - t_a) * s
    for obs in obstacles:
        t2 = times * times
        cx = obs.position.x + obs.velocity.x * times + 0.5 * obs.acceleration.x * t2
        cy = obs.position.y + obs.velocity.y * times + 0.5 * obs.acceleration.y * t2
        d = np.hypot(px - cx, py - cy)
        if not np.all(d > obs.safety_radius + margin):
            return False
    return True


def dense_time_oracle(obstacles, a, b, t_a, t_b, margin, step=0.001):
    """Brute-force sweep at 1 ms resolution, independent of the library sampling."""
    duration = max(t_b - t_a, a.distance_to(b))  # parameter span proxy
    n = max(int(math.ceil(duration / step)), 1)
    for k in range(n + 1):
        f = k / n
        px = a.x + (b.x - a.x) * f
        py = a.y + (b.y - a.y) * f
        t = t_a + (t_b - t_a) * f
        for obs in obstacles:
            cx = obs.position.x + obs.velocity.x * t + 0.5 * obs.acceleration.x * t * t
            cy = obs.position.y + obs.velocity.y * t + 0.5 * obs.acceleration.y * t * t
            if math.hypot(px - cx, py - cy) <= obs.safety_radius + margin:
                return False
    return True


def segment_clear(obstacles, a, b, t_a, t_b, margin):
    """``segments_clear`` on the single segment from ``a`` at ``t_a`` to ``b`` at ``t_b``."""
    ax, ay, dx, dy, length, t0, dt = (
        np.array([v], dtype=float)
        for v in (a.x, a.y, b.x - a.x, b.y - a.y, a.distance_to(b), t_a, t_b - t_a)
    )
    clear = segments_clear(ax, ay, dx, dy, length, t0, dt, _ObstacleArrays(obstacles), margin)
    return bool(clear[0])


class TestSegmentsClear:
    def test_through_center_blocked(self):
        obs = [ObstacleState(Vec2(0, 0))]
        assert not segment_clear(obs, Vec2(-1, 0), Vec2(1, 0), 0.0, 1.0, 0.0)

    def test_far_segment_free(self):
        obs = [ObstacleState(Vec2(0, 5))]
        assert segment_clear(obs, Vec2(-1, 0), Vec2(1, 0), 0.0, 1.0, 0.0)

    def test_moving_obstacle_intercepts_midway(self):
        # clear at both endpoint times, but the obstacle crosses mid-traversal
        obs = [
            ObstacleState(Vec2(0, 5), Vec2(0, -1), model=MotionModel.CONST_VELOCITY)
        ]
        a, b = Vec2(-1, 0), Vec2(1, 0)
        assert not segment_clear(obs, a, b, 0.0, 10.0, 0.0)
        assert dense_time_oracle(obs, a, b, 0.0, 10.0, 0.0) is False
        # same geometry traversed fast enough is fine
        assert segment_clear(obs, a, b, 0.0, 1.0, 0.0)
        assert dense_time_oracle(obs, a, b, 0.0, 1.0, 0.0) is True

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_zero_segments(self, count):
        obstacles = _ObstacleArrays([ObstacleState(Vec2(k, 0)) for k in range(count)])
        empty = np.zeros(0)
        clear = segments_clear(empty, empty, empty, empty, empty, empty, empty, obstacles, 0.0)
        assert clear.dtype == bool
        assert clear.shape == (0,)

    def test_one_state_polyline_is_clear(self):
        obstacles = _ObstacleArrays([ObstacleState(Vec2(3, 0))])
        assert polyline_clear(np.array([[0.0, 0.0]]), np.zeros(0), obstacles, 0.0) is True

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            segment_clear([], Vec2(0, 0), Vec2(1, 0), 1.0, 0.0, 0.0)

    @given(
        ax=coord, ay=coord, bx=coord, by=coord,
        ox=coord, oy=coord,
        margin=st.floats(min_value=0, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_static_symmetry(self, ax, ay, bx, by, ox, oy, margin):
        obs = [ObstacleState(Vec2(ox, oy), safety_radius=0.4)]
        a, b = Vec2(ax, ay), Vec2(bx, by)
        assert segment_clear(obs, a, b, 0.0, 0.0, margin) == segment_clear(
            obs, b, a, 0.0, 0.0, margin
        )

    @given(
        ax=coord, ay=coord, bx=coord, by=coord,
        ox=coord, oy=coord,
        m1=st.floats(min_value=0, max_value=0.4),
        m2=st.floats(min_value=0, max_value=0.4),
    )
    @settings(max_examples=60, deadline=None)
    def test_margin_monotonicity(self, ax, ay, bx, by, ox, oy, m1, m2):
        lo, hi = sorted((m1, m2))
        obs = [ObstacleState(Vec2(ox, oy), safety_radius=0.3)]
        a, b = Vec2(ax, ay), Vec2(bx, by)
        if not segment_clear(obs, a, b, 0.0, 0.0, lo):
            assert not segment_clear(obs, a, b, 0.0, 0.0, hi)


class TestExactTouch:
    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_bundled_start_goal_edge_blocked(self, scenario_paths, name):
        # The straight start-goal edge takes a sample at (-2.5, 0), exactly
        # r = 0.5 from the obstacle at (-2, 0) at t = 0: a touch, not a pass.
        sc = parse_scenario(str(scenario_paths[name]))
        assert (sc.start, sc.goal) == (Vec2(-4, 0), Vec2(4, 0))
        first = sc.obstacles[0]
        assert (first.position, first.safety_radius, sc.margin) == (Vec2(-2, 0), 0.5, 0.0)
        zero = np.zeros(1)
        px, py, _, _ = sweep_samples(
            np.array([-4.0]), zero, np.array([8.0]), zero, np.array([8.0]), zero, zero
        )
        assert np.any((px == -2.5) & (py == 0.0))
        free = _free_matrix([sc.start, sc.goal], [[0.0, 8.0], [8.0, 0.0]],
                            _ObstacleArrays(sc.obstacles), sc.margin)
        assert not free[0, 1]
        assert not ref_segment_is_free(sc.obstacles, sc.start, sc.goal, 0.0, 0.0, sc.margin)
        # Up to that sample the edge only touches the first obstacle's circle,
        # and the strict test still calls it blocked.
        touch = Vec2(-2.5, 0)
        assert not segment_clear([first], sc.start, touch, 0.0, 0.0, 0.0)
        assert not ref_segment_is_free([first], sc.start, touch, 0.0, 0.0, 0.0)
        assert segment_clear([first], sc.start, Vec2(-2.5 - 1e-9, 0), 0.0, 0.0, 0.0)


instant_obstacle_st = st.builds(
    lambda model, x, y, vx, vy, ax, ay, r: ObstacleState(
        Vec2(x, y),
        Vec2(vx, vy) if model != MotionModel.STATIC else Vec2(0.0, 0.0),
        Vec2(ax, ay) if model == MotionModel.CONST_ACCELERATION else Vec2(0.0, 0.0),
        safety_radius=r,
        model=model,
    ),
    st.sampled_from(list(MotionModel)),
    coord, coord,
    st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=-0.1, max_value=0.1), st.floats(min_value=-0.1, max_value=0.1),
    st.floats(min_value=0.2, max_value=0.8),
)
# How far a constructed edge passes outside (+) or inside (-) a circle.
graze_st = st.tuples(
    st.sampled_from([1.0, -1.0]), st.sampled_from([1e-9, 1e-8, 1e-7, 1e-6])
).map(lambda sign_size: sign_size[0] * sign_size[1])


def _edge_arrays(edges, t0):
    """``segments_clear`` arrays of (a, b) edges that take no time."""
    ax, ay, bx, by = (np.array(v, dtype=float) for v in zip(*edges))
    dx, dy = bx - ax, by - ay
    zero = np.zeros(len(edges))
    return ax, ay, dx, dy, np.hypot(dx, dy), zero + t0, zero


class TestInstantBranch:
    """Calls whose segments all take no time skip most of the sweep, and
    must give the sampled kernel's verdicts exactly."""

    def test_matches_sampled_kernel(self):
        outcomes = set()

        @given(
            obstacles=st.lists(instant_obstacle_st, min_size=1, max_size=6),
            nodes=st.lists(st.tuples(coord, coord), min_size=2, max_size=8),
            margin=st.sampled_from([0.0, 0.05]),
            t0=st.sampled_from([0.0, 1.5]),
            grazes=st.lists(graze_st, min_size=6, max_size=6),
            angles=st.lists(st.floats(min_value=0.0, max_value=2 * math.pi),
                            min_size=6, max_size=6),
            half=st.floats(min_value=0.01, max_value=1.5),
        )
        @settings(max_examples=120, deadline=None)
        def check(obstacles, nodes, margin, t0, grazes, angles, half):
            edges = [(a + b) for k, a in enumerate(nodes) for b in nodes[k + 1:]]
            for obs, graze, theta in zip(obstacles, grazes, angles):
                c = predict_position(obs, t0)
                reach = obs.safety_radius + margin + graze
                ux, uy = math.cos(theta), math.sin(theta)
                qx, qy = c.x + reach * ux, c.y + reach * uy  # on the tangent
                edges.append((qx - half * uy, qy + half * ux, qx + half * uy, qy - half * ux))
                edges.append((qx, qy, qx, qy))  # zero length, at the graze
                inside = (c.x + 0.5 * obs.safety_radius * ux, c.y + 0.5 * obs.safety_radius * uy)
                edges.append(inside + nodes[0])  # an endpoint inside the circle
            edges.append(nodes[0] + nodes[0])
            arrays = _ObstacleArrays(obstacles)
            rows = _edge_arrays(edges, t0)
            got = segments_clear(*rows, arrays, margin)
            expected = _swept_clear(*rows, arrays, arrays.radius + margin)
            assert got.tolist() == expected.tolist()
            clear, undecided = _instant_clear(*rows, arrays, arrays.radius + margin)
            decided = ~undecided
            assert clear[decided].tolist() == expected[decided].tolist()
            outcomes.update(
                "sampled" if u else ("clear" if ok else "blocked")
                for ok, u in zip(clear.tolist(), undecided.tolist())
            )

        check()
        assert outcomes == {"clear", "blocked", "sampled"}

    def test_three_outcomes(self):
        # One obstacle at the origin, limit 0.5: a far edge is clear by bound,
        # an edge through the center is blocked by its probe, and an edge
        # 1e-9 m outside the circle is left to the sweep, which clears it.
        arrays = _ObstacleArrays([ObstacleState(Vec2(0, 0))])
        edges = [(-1.0, 2.0, 1.0, 2.0), (-1.0, 0.0, 1.0, 0.0), (-1.0, 0.5 + 1e-9, 1.0, 0.5 + 1e-9)]
        rows = _edge_arrays(edges, 0.0)
        clear, undecided = _instant_clear(*rows, arrays, arrays.radius)
        assert undecided.tolist() == [False, False, True]
        assert clear[:2].tolist() == [True, False]
        assert segments_clear(*rows, arrays, 0.0).tolist() == [True, False, True]

    def test_probe_rejects_on_the_sampled_float(self):
        # The edge's only sample inside the circle is its probe; a sample
        # exactly on the circle is a touch, and blocks.
        arrays = _ObstacleArrays([ObstacleState(Vec2(0, 0))])
        rows = _edge_arrays([(-1.0, 0.5, 1.0, 0.5)], 0.0)
        clear, undecided = _instant_clear(*rows, arrays, arrays.radius)
        assert (clear.tolist(), undecided.tolist()) == ([False], [False])
        assert not _swept_clear(*rows, arrays, arrays.radius)[0]
