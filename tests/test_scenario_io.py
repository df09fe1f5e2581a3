import json

import pytest

from kinoplan.geometry import MotionModel, ObstacleState, Trajectory, Vec2
from kinoplan.planner import PlanResult, Scenario, SimTrace, TickRecord
from kinoplan.scenario_io import (
    ScenarioError,
    parse_scenario,
    parse_scenario_dict,
    plan_result_to_dict,
    scenario_to_dict,
    trace_to_lines,
    write_scenario,
)


class TestParseScenario:
    def test_bundled_scenario1_matches_first_table(self, scenario_paths):
        s = parse_scenario(str(scenario_paths["scenario1"]))
        assert s.start == Vec2(-4, 0)
        assert s.goal == Vec2(4, 0)
        assert [o.position for o in s.obstacles] == [Vec2(-2, 0), Vec2(2, 0), Vec2(0, 0)]
        assert all(o.model is MotionModel.STATIC for o in s.obstacles)
        assert s.max_classes == 5

    def test_bundled_scenario2_matches_second_table(self, scenario_paths):
        s = parse_scenario(str(scenario_paths["scenario2"]))
        assert [o.velocity for o in s.obstacles] == [
            Vec2(0.2, 0.3),
            Vec2(-0.2, -0.3),
            Vec2(0.2, -0.2),
        ]
        assert all(o.model is MotionModel.CONST_VELOCITY for o in s.obstacles)
        assert s.max_classes == 4

    def test_bundled_scenario3_matches_third_table(self, scenario_paths):
        s = parse_scenario(str(scenario_paths["scenario3"]))
        assert [o.acceleration for o in s.obstacles] == [
            Vec2(-0.01, -0.02),
            Vec2(0.03, 0.01),
            Vec2(-0.02, 0.03),
        ]
        assert all(o.model is MotionModel.CONST_ACCELERATION for o in s.obstacles)

    def test_empty_obstacles_ok(self):
        s = parse_scenario_dict({"start": [0, 0], "goal": [1, 0], "obstacles": []})
        assert s.obstacles == ()

    def test_missing_start_named(self):
        with pytest.raises(ScenarioError, match="start"):
            parse_scenario_dict({"goal": [1, 0]})

    def test_velocity_on_static_rejected_with_field(self):
        doc = {
            "start": [0, 0],
            "goal": [1, 0],
            "obstacles": [{"position": [0.5, 0], "velocity": [0.1, 0], "model": "static"}],
        }
        with pytest.raises(ScenarioError, match=r"obstacles\[0\].velocity"):
            parse_scenario_dict(doc)

    def test_acceleration_on_cv_rejected(self):
        doc = {
            "start": [0, 0],
            "goal": [1, 0],
            "obstacles": [
                {
                    "position": [0.5, 0],
                    "velocity": [0.1, 0],
                    "acceleration": [0.01, 0],
                    "model": "constant_velocity",
                }
            ],
        }
        with pytest.raises(ScenarioError, match=r"obstacles\[0\].acceleration"):
            parse_scenario_dict(doc)

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ScenarioError, match="wobble"):
            parse_scenario_dict({"start": [0, 0], "goal": [1, 0], "wobble": 3})
        with pytest.raises(ScenarioError, match="spin"):
            parse_scenario_dict(
                {"start": [0, 0], "goal": [1, 0], "obstacles": [{"position": [0, 1], "spin": 2}]}
            )

    def test_model_inferred_when_absent(self):
        s = parse_scenario_dict(
            {"start": [0, 0], "goal": [1, 0], "obstacles": [{"position": [0, 1], "velocity": [0.1, 0]}]}
        )
        assert s.obstacles[0].model is MotionModel.CONST_VELOCITY

    def test_bad_number_named(self):
        with pytest.raises(ScenarioError, match="margin"):
            parse_scenario_dict({"start": [0, 0], "goal": [1, 0], "margin": "wide"})

    def test_malformed_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="JSON"):
            parse_scenario(str(path))

    def test_invariant_violations_surface(self):
        with pytest.raises(ScenarioError):
            parse_scenario_dict({"start": [0, 0], "goal": [0, 0]})
        with pytest.raises(ScenarioError):
            parse_scenario_dict({"start": [0, 0], "goal": [1, 0], "max_classes": 0})


class TestRoundTrip:
    def test_bundled_files_round_trip(self, scenario_paths, tmp_path):
        for name, path in scenario_paths.items():
            s = parse_scenario(str(path))
            out = tmp_path / f"{name}.json"
            write_scenario(s, str(out))
            assert parse_scenario(str(out)) == s

    def test_custom_scenario_round_trip(self):
        doc = {
            "start": [-3.5, 0.25],
            "goal": [2.0, -1.0],
            "obstacles": [
                {
                    "position": [0.1, 0.2],
                    "velocity": [0.05, -0.02],
                    "acceleration": [0.001, 0.002],
                    "safety_radius": 0.35,
                    "model": "constant_acceleration",
                }
            ],
            "limits": {"v_max": 0.4, "a_max": 0.6},
            "weights": {"w_time": 2.0, "w_obstacle": 5.0, "w_smooth": 0.1, "w_vel": 50.0, "w_acc": 70.0},
            "density": {"d_min": 0.04, "d_max": 0.5, "d_max_bend": 0.12, "kappa_thresh": 0.8},
            "max_classes": 3,
            "margin": 0.02,
            "rates": {"detection": 20.0, "replan": 5.0},
            "detection_noise_std": 0.005,
            "sim_duration_max": 45.0,
        }
        s = parse_scenario_dict(doc)
        assert parse_scenario_dict(scenario_to_dict(s)) == s
        assert isinstance(s, Scenario)

    def test_dict_form_is_json_serializable(self, scenario_paths):
        s = parse_scenario(str(scenario_paths["scenario3"]))
        text = json.dumps(scenario_to_dict(s))
        assert parse_scenario_dict(json.loads(text)) == s


class TestObstacleViews:
    def test_scenario_plan_and_trace_views_agree(self):
        obs = ObstacleState(
            Vec2(0.1, -0.2), Vec2(0.05, 0.0), Vec2(-0.001, 0.002), 0.35,
            MotionModel.CONST_ACCELERATION,
        )
        s = Scenario(start=Vec2(-1, 0), goal=Vec2(1, 0), obstacles=(obs,))
        chosen = Trajectory.from_waypoints([s.start, s.goal], [4.0])
        plan = PlanResult(chosen, 0, (), 0.0, 4.0, 2)
        tick = TickRecord(0.0, s.start, (obs, obs), (obs, None), 0, 0.0, 1.0)
        trace = SimTrace(status="reached", ticks=[tick])
        in_scenario = scenario_to_dict(s)["obstacles"][0]
        in_plan = plan_result_to_dict(plan, s, s.obstacles)["obstacles"][0]
        in_trace, untracked = json.loads(trace_to_lines(trace)[0])["obstacles"]
        assert in_scenario == in_plan == in_trace["true"] == in_trace["estimated"]
        assert untracked["true"] == in_scenario and untracked["estimated"] is None
        assert json.loads(json.dumps(in_scenario)) == in_scenario
        assert in_scenario["model"] == "constant_acceleration"
