import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinoplan.geometry import (
    KinodynamicLimits,
    MotionModel,
    ObstacleState,
    TimedState,
    Trajectory,
    Vec2,
    arc_length,
)
from kinoplan.optimizer import _curvature, state_curvatures

finite_coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def straight(points, dt=1.0):
    return Trajectory.from_waypoints([Vec2(x, y) for x, y in points], [dt] * (len(points) - 1))


class TestVec2:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, float("inf"))

    def test_arithmetic(self):
        assert Vec2(1, 2) + Vec2(3, -1) == Vec2(4, 1)
        assert Vec2(1, 2) - Vec2(3, -1) == Vec2(-2, 3)
        assert Vec2(3, 4).norm() == 5.0
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1.0


class TestObstacleState:
    def test_static_requires_zero_motion(self):
        with pytest.raises(ValueError):
            ObstacleState(Vec2(0, 0), velocity=Vec2(0.1, 0), model=MotionModel.STATIC)

    def test_cv_requires_zero_acceleration(self):
        with pytest.raises(ValueError):
            ObstacleState(
                Vec2(0, 0),
                velocity=Vec2(0.1, 0),
                acceleration=Vec2(0.01, 0),
                model=MotionModel.CONST_VELOCITY,
            )

    def test_safety_radius_positive(self):
        with pytest.raises(ValueError):
            ObstacleState(Vec2(0, 0), safety_radius=0.0)


class TestLimits:
    @pytest.mark.parametrize("v_max,a_max", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_rejects_non_positive(self, v_max, a_max):
        with pytest.raises(ValueError):
            KinodynamicLimits(v_max, a_max)


class TestTrajectory:
    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            Trajectory((TimedState(Vec2(0, 0), 0.0, 0.0),))

    def test_terminal_dt_zero(self):
        good = straight([(0, 0), (1, 0)])
        assert good.states[-1].dt == 0.0
        with pytest.raises(ValueError):
            Trajectory((TimedState(Vec2(0, 0), 0.0, 1.0), TimedState(Vec2(1, 0), 0.0, 1.0)))

    def test_nonterminal_dt_positive(self):
        with pytest.raises(ValueError):
            Trajectory.from_waypoints([Vec2(0, 0), Vec2(1, 0), Vec2(2, 0)], [1.0, 0.0])

    def test_total_time_is_exact_sum(self):
        dts = [0.1, 0.25, 0.3, 0.17]
        traj = Trajectory.from_waypoints([Vec2(i, 0) for i in range(5)], dts)
        assert traj.total_time == sum(s.dt for s in traj.states)

    def test_headings_follow_outgoing_segment(self):
        traj = straight([(0, 0), (1, 0), (1, 1)])
        assert traj.states[0].heading == 0.0
        assert traj.states[1].heading == pytest.approx(math.pi / 2)
        # terminal heading copies its predecessor
        assert traj.states[2].heading == traj.states[1].heading

    def test_heading_range(self):
        traj = straight([(0, 0), (-1, 0)])  # pointing along -x: exactly pi, not -pi
        assert traj.states[0].heading == pytest.approx(math.pi)
        assert -math.pi < traj.states[0].heading <= math.pi


class TestArcLength:
    def test_straight_segment(self):
        assert arc_length(straight([(-4, 0), (4, 0)])) == 8.0

    def test_degenerate_segment_contributes_zero(self):
        traj = straight([(0, 0), (1, 0), (1, 0 + 0)])
        assert arc_length(traj) == pytest.approx(1.0)

    def test_polyline_matches_distance_formula(self):
        # hand evaluation: two segments of length sqrt(16 + 1)
        traj = straight([(-4, 0), (0, 1), (4, 0)])
        assert arc_length(traj) == pytest.approx(2 * math.sqrt(17), abs=1e-12)

    @given(
        pts=st.lists(st.tuples(finite_coord, finite_coord), min_size=2, max_size=8),
        angle=st.floats(min_value=-math.pi, max_value=math.pi),
        shift=st.tuples(finite_coord, finite_coord),
    )
    @settings(max_examples=60)
    def test_rigid_transform_invariance(self, pts, angle, shift):
        traj = straight(pts)
        c, s = math.cos(angle), math.sin(angle)
        moved = straight(
            [(c * x - s * y + shift[0], s * x + c * y + shift[1]) for x, y in pts]
        )
        a, b = arc_length(traj), arc_length(moved)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-9)


def _circumradius(p0, p1, p2):
    # circumscribed-circle oracle, independent of the cross-product route
    a = math.dist(p1, p0)
    b = math.dist(p2, p1)
    c = math.dist(p2, p0)
    s = 0.5 * (a + b + c)
    area = math.sqrt(max(s * (s - a) * (s - b) * (s - c), 0.0))
    return a * b * c / (4.0 * area)


def signed_curvature(points):
    """``optimizer._curvature``'s signed kappa, one per interior state."""
    p = np.array(points, dtype=float)
    seg = p[1:] - p[:-1]
    return _curvature(p, seg, np.hypot(seg[:, 0], seg[:, 1]))[3]


class TestCurvature:
    def test_collinear_is_zero(self):
        assert signed_curvature([(0, 0), (1, 0), (2, 0)])[0] == 0.0

    def test_unit_circle_magnitude(self):
        pts = [(math.cos(t), math.sin(t)) for t in (0.0, 0.05, 0.1)]
        kappa = signed_curvature(pts)[0]
        assert abs(abs(kappa) - 1.0) < 1e-3
        assert abs(kappa) == pytest.approx(1.0 / _circumradius(*pts), abs=1e-12)

    def test_mirror_flips_sign(self):
        up = signed_curvature([(0, 0), (1, 0.3), (2, 0)])[0]
        down = signed_curvature([(0, 0), (1, -0.3), (2, 0)])[0]
        assert up == pytest.approx(-down)
        assert up != 0.0

    def test_degenerate_points_return_zero(self):
        assert signed_curvature([(0, 0), (0, 0), (1, 0)])[0] == 0.0
        assert signed_curvature([(0, 0), (1e-12, 0), (1, 0)])[0] == 0.0

    def test_interior_index_required(self):
        # one kappa per interior state 1..N-2; the endpoints get none
        for n in (3, 4, 6):
            pts = [(float(k), 0.5 * k * k) for k in range(n)]
            assert len(signed_curvature(pts)) == n - 2
        kappa = state_curvatures(np.array([(0, 0), (1, 0.3), (2, 0)], dtype=float))
        assert kappa[0] == kappa[-1] == 0.0
        assert kappa[1] != 0.0

    @given(
        pts=st.tuples(
            st.tuples(finite_coord, finite_coord),
            st.tuples(finite_coord, finite_coord),
            st.tuples(finite_coord, finite_coord),
        ),
        angle=st.floats(min_value=-math.pi, max_value=math.pi),
        shift=st.tuples(finite_coord, finite_coord),
    )
    @settings(max_examples=60)
    def test_rigid_invariance_and_reflection(self, pts, angle, shift):
        # keep clear of the coincident-point cutoff, where rounding under
        # rotation can flip the degeneracy decision
        assume(min(math.dist(a, b) for a, b in zip(pts, pts[1:] + pts[:1])) > 1e-3)
        k0 = signed_curvature(pts)[0]
        c, s = math.cos(angle), math.sin(angle)
        moved = [(c * x - s * y + shift[0], s * x + c * y + shift[1]) for x, y in pts]
        assert signed_curvature(moved)[0] == pytest.approx(k0, rel=1e-6, abs=1e-9)
        reflected = [(x, -y) for x, y in pts]
        assert signed_curvature(reflected)[0] == pytest.approx(-k0, rel=1e-6, abs=1e-9)
