import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinoplan.geometry import MotionModel, ObstacleState, Trajectory, Vec2
from kinoplan.homotopy import HomotopySignature, enumerate_seed_paths, signatures_equivalent
from kinoplan.optimizer import OptimizationError, optimize_candidate
from kinoplan.planner import (
    CandidateInfo,
    PlanFailure,
    Scenario,
    plan_once,
    sample_trajectory,
    select_best,
    simulate_run,
    trajectory_is_free,
)
from kinoplan.scenario_io import parse_scenario, parse_scenario_dict
from kinoplan.tracking import predict_position
from test_homotopy import CORRIDOR_DOC

TABLE1 = Scenario(
    start=Vec2(-4, 0),
    goal=Vec2(4, 0),
    obstacles=(
        ObstacleState(Vec2(-2, 0)),
        ObstacleState(Vec2(2, 0)),
        ObstacleState(Vec2(0, 0)),
    ),
    max_classes=5,
)


def info(cost, feasible=True, preserved=True, states=10, sig=()):
    return CandidateInfo(sig, cost, preserved, feasible, states)


class TestSelectBest:
    def test_argmin(self):
        assert select_best([info(5), info(2), info(9)]) == 1

    def test_tie_broken_by_fewer_states(self):
        assert select_best([info(2, states=40), info(2, states=30)]) == 1

    def test_feasibility_dominates_cost(self):
        assert select_best([info(1, feasible=False), info(10)]) == 1

    def test_signature_flip_excluded(self):
        assert select_best([info(1, preserved=False), info(10)]) == 1

    def test_none_eligible_raises(self):
        with pytest.raises(PlanFailure) as exc:
            select_best([info(1, feasible=False)])
        assert exc.value.reason == "all_infeasible"


class TestScenario:
    def test_start_goal_must_differ(self):
        with pytest.raises(ValueError):
            Scenario(start=Vec2(0, 0), goal=Vec2(0, 0))

    def test_rates_positive(self):
        with pytest.raises(ValueError):
            Scenario(start=Vec2(0, 0), goal=Vec2(1, 0), replan_rate=0.0)


class TestPlanOnce:
    def test_empty_world_single_straight_candidate(self):
        scenario = Scenario(start=Vec2(-4, 0), goal=Vec2(4, 0))
        result = plan_once(scenario, ())
        assert len(result.candidates) == 1
        assert result.chosen.start == scenario.start
        assert result.chosen.goal == scenario.goal
        assert result.eta == result.chosen.total_time
        assert result.state_count == len(result.chosen.states)

    def test_table1_five_candidates_collision_free(self):
        result = plan_once(TABLE1, TABLE1.obstacles)
        assert len(result.candidates) == 5
        # dense sampling oracle: clearance never dips below the safety radius
        traj = result.chosen
        for t in np.arange(0.0, traj.total_time, 0.001):
            pos = sample_trajectory(traj, float(t))
            for obs in TABLE1.obstacles:
                c = predict_position(obs, float(t))
                assert pos.distance_to(c) >= obs.safety_radius

    def test_chosen_is_min_cost_feasible(self):
        result = plan_once(TABLE1, TABLE1.obstacles)
        chosen = result.candidates[result.chosen_index]
        for c in result.candidates:
            if c.feasible and c.signature_preserved:
                assert chosen.final_cost <= c.final_cost

    def test_candidates_pairwise_distinct(self):
        result = plan_once(TABLE1, TABLE1.obstacles)
        sigs = [HomotopySignature(c.signature) for c in result.candidates]
        for i in range(len(sigs)):
            for j in range(i + 1, len(sigs)):
                assert not signatures_equivalent(sigs[i], sigs[j])

    def test_k1_still_feasible(self):
        scenario = Scenario(
            start=TABLE1.start, goal=TABLE1.goal, obstacles=TABLE1.obstacles, max_classes=1
        )
        result = plan_once(scenario, scenario.obstacles)
        assert len(result.candidates) == 1
        assert result.candidates[result.chosen_index].feasible
        assert trajectory_is_free(result.chosen, scenario.obstacles, scenario.margin)

    def test_goal_inside_obstacle_fails(self):
        scenario = Scenario(
            start=Vec2(-4, 0), goal=Vec2(4, 0), obstacles=(ObstacleState(Vec2(4, 0)),)
        )
        with pytest.raises(PlanFailure) as exc:
            plan_once(scenario, scenario.obstacles)
        assert exc.value.reason == "no_path"

    def test_plan_time_recorded(self):
        result = plan_once(TABLE1, TABLE1.obstacles)
        assert result.plan_time_ms > 0.0


def serial_plan(scenario, obstacles, start=None):
    """``plan_once`` rebuilt from its public layer calls, one seed after
    another in this process, as the benchmark's traced plan does it.
    Returns the candidates, the chosen index and the chosen trajectory."""
    seeds = enumerate_seed_paths(
        start if start is not None else scenario.start, scenario.goal, obstacles,
        scenario.max_classes, scenario.margin, conflict_speed=scenario.limits.v_max,
    )
    infos, trajectories = [], []
    for seed in seeds:
        try:
            traj, report = optimize_candidate(
                seed, obstacles, scenario.weights, scenario.limits, scenario.density
            )
        except OptimizationError:
            infos.append(CandidateInfo(seed.signature.windings, math.inf, False, False, 0))
            trajectories.append(None)
            continue
        feasible = report.signature_preserved and trajectory_is_free(
            traj, obstacles, scenario.margin
        )
        infos.append(CandidateInfo(
            seed.signature.windings, report.final_cost, report.signature_preserved,
            feasible, len(traj.states),
        ))
        trajectories.append(traj)
    index = select_best(infos)
    return infos, index, trajectories[index]


def _exact(info):
    return (info.signature, info.final_cost.hex(), info.signature_preserved,
            info.feasible, info.state_count)


class TestPlanOnceMatchesSerialRebuild:
    """``plan_once`` splits the seeds between this process and forked
    workers; every candidate and the chosen trajectory must be those of the
    serial rebuild, bit for bit."""

    @staticmethod
    def assert_matches(scenario, obstacles, start=None):
        result = plan_once(scenario, obstacles, start=start)
        infos, index, chosen = serial_plan(scenario, obstacles, start)
        assert [_exact(c) for c in result.candidates] == [_exact(c) for c in infos]
        assert result.chosen_index == index
        assert result.chosen == chosen
        assert result.chosen.positions().tobytes() == chosen.positions().tobytes()
        assert result.chosen.durations().tobytes() == chosen.durations().tobytes()
        return result

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_bundled_scenarios(self, name, workers, scenario_paths, monkeypatch):
        monkeypatch.setattr("kinoplan.workers.extra_cpus", lambda: workers)
        sc = parse_scenario(str(scenario_paths[name]))
        result = self.assert_matches(sc, sc.obstacles)
        assert len(result.candidates) > workers

    def test_six_obstacle_corridor(self, monkeypatch):
        monkeypatch.setattr("kinoplan.workers.extra_cpus", lambda: 1)
        sc = parse_scenario_dict(CORRIDOR_DOC)
        self.assert_matches(sc, sc.obstacles)

    def test_closed_loop_replans(self, scenario_paths, monkeypatch):
        """Tracked obstacles and starts away from the scenario start: the
        first replans of a closed-loop run, rebuilt from its tick log."""
        monkeypatch.setattr("kinoplan.workers.extra_cpus", lambda: 1)
        sc = parse_scenario(str(scenario_paths["scenario3"]))
        ticks = simulate_run(sc, seed=0).ticks[:10]
        assert len(ticks) == 10
        for tick in ticks:
            known = tuple(o for o in tick.obstacles_est if o is not None)
            self.assert_matches(sc, known, start=tick.vehicle)


class TestSampleTrajectory:
    def test_interpolates_and_clamps(self):
        result = plan_once(Scenario(start=Vec2(0, 0), goal=Vec2(1, 0)), ())
        traj = result.chosen
        assert sample_trajectory(traj, -1.0) == traj.start
        assert sample_trajectory(traj, traj.total_time + 5.0) == traj.goal
        mid = sample_trajectory(traj, traj.total_time / 2)
        assert 0.0 < mid.x < 1.0


class TestSimulateRun:
    def test_quick_static_run(self):
        scenario = Scenario(
            start=Vec2(-1.5, 0),
            goal=Vec2(1.5, 0),
            obstacles=(ObstacleState(Vec2(0, 0)),),
        )
        trace = simulate_run(scenario, seed=0)
        assert trace.status == "reached"
        assert trace.min_clearance >= 0.0
        assert trace.plan_failures == 0
        times = [t.time for t in trace.ticks]
        assert times == sorted(times)
        assert len(set(times)) == len(times)

    def test_vehicle_speed_bounded(self):
        scenario = Scenario(start=Vec2(-1.5, 0), goal=Vec2(1.5, 0))
        trace = simulate_run(scenario, seed=0)
        tick = 1.0 / scenario.replan_rate
        for a, b in zip(trace.ticks[:-1], trace.ticks[1:]):
            moved = a.vehicle.distance_to(b.vehicle)
            assert moved <= scenario.limits.v_max * tick + 0.01

    def test_latency_recorded_every_tick(self):
        scenario = Scenario(start=Vec2(-1.5, 0), goal=Vec2(1.5, 0))
        trace = simulate_run(scenario, seed=0)
        assert all(t.replan_ms > 0.0 for t in trace.ticks)
        assert trace.plan_time_mean_ms > 0.0
        assert trace.plan_time_p95_ms >= trace.plan_time_mean_ms * 0.5

    def test_planner_consumes_estimates_not_truth(self):
        scenario = Scenario(
            start=Vec2(-1.5, 0),
            goal=Vec2(1.5, 0),
            obstacles=(ObstacleState(Vec2(0, 0.8)),),
            detection_noise_std=0.02,
        )
        trace = simulate_run(scenario, seed=3)
        est_positions = [
            t.obstacles_est[0].position for t in trace.ticks if t.obstacles_est[0] is not None
        ]
        true_positions = [t.obstacles_true[0].position for t in trace.ticks]
        assert any(e != t for e, t in zip(est_positions, true_positions))
        # estimates still live near the truth
        assert all(e.distance_to(t) < 0.1 for e, t in zip(est_positions, true_positions))

    def test_unreachable_goal_times_out(self):
        scenario = Scenario(
            start=Vec2(-1.5, 0),
            goal=Vec2(1.5, 0),
            obstacles=(ObstacleState(Vec2(1.5, 0)),),  # goal blocked forever
            sim_duration_max=2.0,
        )
        trace = simulate_run(scenario, seed=0)
        assert trace.status == "timeout"
        assert trace.plan_failures >= 1


def _oracle_trajectory_is_free(traj, obstacles, margin):
    """The per-segment ``np.linspace`` loop that ``trajectory_is_free`` batches."""
    if not obstacles:
        return True
    pts = traj.positions()
    dts = traj.durations()
    times = np.concatenate(([0.0], np.cumsum(dts)))
    seg = np.diff(pts, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    sample_x, sample_y, sample_t = [], [], []
    for i in range(len(seg)):
        steps = max(int(math.ceil(lengths[i] / 0.05)), int(math.ceil(dts[i] / 0.05)), 1)
        s = np.linspace(0.0, 1.0, steps + 1)
        sample_x.append(pts[i, 0] + seg[i, 0] * s)
        sample_y.append(pts[i, 1] + seg[i, 1] * s)
        sample_t.append(times[i] + dts[i] * s)
    px = np.concatenate(sample_x)
    py = np.concatenate(sample_y)
    pt = np.concatenate(sample_t)
    pt2 = 0.5 * pt * pt
    for obs in obstacles:
        cx = obs.position.x + obs.velocity.x * pt + obs.acceleration.x * pt2
        cy = obs.position.y + obs.velocity.y * pt + obs.acceleration.y * pt2
        d2 = (px - cx) ** 2 + (py - cy) ** 2
        limit = obs.safety_radius + margin
        if not np.all(d2 > limit * limit):
            return False
    return True


_coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_small = st.floats(min_value=-0.3, max_value=0.3, allow_nan=False)
_moving_obstacle = st.builds(
    lambda x, y, vx, vy, ax, ay, r: ObstacleState(
        Vec2(x, y), Vec2(vx, vy), Vec2(ax, ay), safety_radius=r,
        model=MotionModel.CONST_ACCELERATION,
    ),
    _coord, _coord, _small, _small, _small, _small,
    st.floats(min_value=0.05, max_value=0.6, allow_nan=False),
)


class TestTrajectoryIsFreeOracle:
    @given(
        points=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=8),
        dts=st.lists(st.floats(min_value=0.01, max_value=1.5, allow_nan=False),
                     min_size=7, max_size=7),
        obstacles=st.lists(_moving_obstacle, min_size=0, max_size=4),
        margin=st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_segment_loop(self, points, dts, obstacles, margin):
        traj = Trajectory.from_waypoints([Vec2(x, y) for x, y in points], dts[: len(points) - 1])
        assert trajectory_is_free(traj, obstacles, margin) == _oracle_trajectory_is_free(
            traj, obstacles, margin
        )

    def test_exact_touch_decided_like_the_loop(self):
        # The obstacle rides along with the vehicle and is closest at t = 1 s,
        # where its predicted center is exactly r away: the d2 > r*r test
        # says "not free", and any rounding slip in the prediction flips it.
        traj = Trajectory.from_waypoints([Vec2(0, 0), Vec2(1, 0)], [2.0])
        for r in (0.25, 0.25 - 1e-12):
            obstacles = [ObstacleState(
                Vec2(0.0, 1.25), Vec2(0.5, -2.0), Vec2(0.0, 2.0), safety_radius=r,
                model=MotionModel.CONST_ACCELERATION,
            )]
            want = _oracle_trajectory_is_free(traj, obstacles, 0.0)
            assert want == (r < 0.25)
            assert trajectory_is_free(traj, obstacles, 0.0) == want
