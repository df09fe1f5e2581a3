"""Tests of the benchmark's own arithmetic and inputs, on synthetic data.

Run from the repository root: python3 -m pytest perfbench -q
"""
import math

import numpy as np
import pytest

import measure
import scenes
from tracing import Tracer

from kinoplan.geometry import MotionModel, ObstacleState, Vec2
from kinoplan.scenario_io import parse_scenario_dict


def test_corridor_scenes_repeat_for_a_seed():
    assert scenes.corridor_scenes(7, 12) == scenes.corridor_scenes(7, 12)


def test_corridor_seed_moves_obstacles_but_keeps_their_motion():
    a, b = scenes.corridor_scenes(1, 12), scenes.corridor_scenes(2, 12)
    positions = lambda docs: [o["position"] for d in docs for o in d["obstacles"]]
    motion = lambda docs: [
        (o["model"], o.get("velocity"), o.get("acceleration")) for d in docs for o in d["obstacles"]
    ]
    assert positions(a) != positions(b)
    assert motion(a) == motion(b)


def test_corridor_scenes_follow_the_spec():
    docs = scenes.corridor_scenes(3, 40)
    models = set()
    for doc in docs:
        assert doc["start"] == [-7.0, 0.0] and doc["goal"] == [7.0, 0.0]
        assert doc["max_classes"] == 2
        assert len(doc["obstacles"]) == 6
        for k, obs in enumerate(doc["obstacles"]):
            x, y = obs["position"]
            assert abs(x - (-7.0 + 2.0 * (k + 1))) <= 0.2 and abs(y) <= 0.2
            assert math.hypot(*obs.get("velocity", (0.0, 0.0))) <= 0.2
            models.add(obs["model"])
        scenario = parse_scenario_dict(doc)
        assert len(scenario.obstacles) == 6
    assert models == set(scenes.MODELS)


@pytest.mark.parametrize("q", [0, 10, 50, 90, 95, 99, 100])
def test_percentile_matches_numpy(q):
    values = list(np.random.default_rng(0).lognormal(4.0, 0.6, size=101))
    assert measure.percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_interpolates_and_ignores_order():
    assert measure.percentile([40.0, 10.0, 30.0, 20.0], 50) == 25.0
    tail = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 1000.0]
    assert measure.percentile(tail, 90) == pytest.approx(181.0)
    assert measure.percentile([5.0], 95) == 5.0


@pytest.mark.parametrize("values,q", [([], 50), ([1.0], -1), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        measure.percentile(values, q)


def test_ratio():
    assert measure.ratio(3, 12) == 0.25
    assert measure.ratio(0, 5) == 0.0
    with pytest.raises(ValueError):
        measure.ratio(1, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("plan", 0.0, 10.0, -1, 0),
        ("enumerate", 1.0, 3.0, 0, 0),
        ("optimize", 3.0, 8.0, 0, 0),
        ("inner", 4.0, 5.0, 2, 0),
        ("plan", 20.0, 21.0, -1, 1),
    ]
    assert measure.self_times(spans) == [3.0, 2.0, 4.0, 1.0, 1.0]


def test_tracer_nests_spans():
    tracer = Tracer()
    with tracer.span("a", 0):
        with tracer.span("b", 0):
            pass
        with tracer.span("c", 0):
            pass
    with tracer.span("d", 1):
        pass
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("a", -1, 0), ("b", 0, 0), ("c", 0, 0), ("d", -1, 1)
    ]
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_clearance_of_a_pass_by_a_static_obstacle():
    p = np.array([[-2.0, 0.0], [2.0, 0.0]])
    obs = [ObstacleState(Vec2(0.0, 0.8), safety_radius=0.5)]
    assert measure.clearance(p, np.array([8.0]), obs, 0.0) == pytest.approx(0.3)
    assert measure.clearance(p, np.array([8.0]), obs, 0.1) == pytest.approx(0.2)


def test_clearance_of_a_moving_obstacle_matches_a_dense_reference():
    p = np.array([[-1.0, 0.0], [1.0, 0.0]])
    for y0, vy in ((-0.9, 0.2), (-0.6, 0.2), (0.7, -0.1)):
        obs = [ObstacleState(Vec2(0.0, y0), Vec2(0.0, vy), safety_radius=0.5,
                             model=MotionModel.CONST_VELOCITY)]
        t = np.linspace(0.0, 2.0, 2_000_001)
        reference = np.min(np.hypot(-1.0 + t, -(y0 + vy * t))) - 0.5
        assert measure.clearance(p, np.array([2.0]), obs, 0.0) == pytest.approx(reference, abs=1e-5)


def test_sweep_samples_hit_every_state_and_step_finely():
    p = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]])
    dts = np.array([2.0, 0.5])
    px, py, pt = measure.sweep_samples(p, dts)
    assert (px[0], py[0], pt[0]) == (0.0, 0.0, 0.0)
    assert (px[-1], py[-1], pt[-1]) == (1.0, 0.5, 2.5)
    assert np.max(np.diff(pt)) <= measure.CHECK_STEP_S + 1e-12
    assert np.max(np.hypot(np.diff(px), np.diff(py))) <= measure.CHECK_STEP_M + 1e-12


def test_peak_speed_and_acceleration():
    # 1 m in 2 s, then 1 m in 1 s at a right angle.
    p = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    v_peak, a_peak = measure.peak_speed_accel(p, np.array([2.0, 1.0]))
    assert v_peak == pytest.approx(1.0)
    assert a_peak == pytest.approx(math.hypot(0.5, 1.0) / 1.5)
    assert measure.limit_ratio(v_peak, a_peak, 0.5, 1.0) == pytest.approx(2.0)
