import json


from kinoplan.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlanCommand:
    def test_writes_plan_with_eta_and_states(self, scenario_paths, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, _, err = run_cli(capsys, "plan", str(scenario_paths["scenario1"]), "-o", str(out))
        assert code == 0
        assert err == ""
        doc = json.loads(out.read_text())
        assert doc["state_count"] == len(doc["trajectory"])
        assert doc["eta"] > 0
        assert len(doc["candidates"]) == 5
        assert len(doc["obstacles"]) == 3

    def test_goal_inside_obstacle_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "blocked.json"
        scen.write_text(
            json.dumps(
                {
                    "start": [-4, 0],
                    "goal": [4, 0],
                    "obstacles": [{"position": [4, 0], "model": "static"}],
                }
            )
        )
        code, _, err = run_cli(capsys, "plan", str(scen), "-o", str(tmp_path / "x.json"))
        assert code == 2
        assert err != ""

    def test_same_seed_byte_identical(self, scenario_paths, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(capsys, "plan", str(scenario_paths["scenario1"]), "-o", str(a), "--seed", "7")[0] == 0
        assert run_cli(capsys, "plan", str(scenario_paths["scenario1"]), "-o", str(b), "--seed", "7")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "plan", str(tmp_path / "nope.json"))
        assert code == 1
        assert err != ""

    def test_invalid_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"start": [0, 0]}')
        code, _, err = run_cli(capsys, "plan", str(bad))
        assert code == 1
        assert "goal" in err


class TestSimulateCommand:
    def test_trace_lines_parse_and_summary_last(self, tmp_path, capsys):
        scen = tmp_path / "tiny.json"
        scen.write_text(
            json.dumps(
                {
                    "start": [-1.5, 0],
                    "goal": [1.5, 0],
                    "obstacles": [{"position": [0, 0], "model": "static"}],
                }
            )
        )
        out = tmp_path / "trace.ndjson"
        code, _, err = run_cli(capsys, "simulate", str(scen), "-o", str(out), "--seed", "0")
        assert code == 0
        assert err == ""
        lines = out.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["type"] in {"tick", "summary"} for r in records)
        assert records[-1]["type"] == "summary"
        assert records[-1]["status"] == "reached"
        assert all(r["type"] == "tick" for r in records[:-1])
        times = [r["time"] for r in records[:-1]]
        assert times == sorted(times)

    def test_bundled_scenario2_reaches_goal(self, scenario_paths, tmp_path, capsys):
        out = tmp_path / "trace.ndjson"
        code, _, err = run_cli(
            capsys, "simulate", str(scenario_paths["scenario2"]), "-o", str(out), "--seed", "0"
        )
        assert code == 0 and err == ""
        summary = json.loads(out.read_text().strip().splitlines()[-1])
        assert summary["status"] == "reached"
        assert summary["min_clearance"] >= 0.0

    def test_collision_free_goal_blocked_times_out_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "stuck.json"
        scen.write_text(
            json.dumps(
                {
                    "start": [-1.5, 0],
                    "goal": [1.5, 0],
                    "obstacles": [{"position": [1.5, 0], "model": "static"}],
                    "sim_duration_max": 1.0,
                }
            )
        )
        code, _, _ = run_cli(capsys, "simulate", str(scen), "-o", str(tmp_path / "t.ndjson"))
        assert code == 2


class TestRenderCommand:
    def test_plan_svg_counts(self, scenario_paths, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert run_cli(capsys, "plan", str(scenario_paths["scenario1"]), "-o", str(plan))[0] == 0
        svg = tmp_path / "plan.svg"
        code, _, err = run_cli(capsys, "render", str(plan), "-o", str(svg))
        assert code == 0 and err == ""
        text = svg.read_text()
        assert text.count('class="safety"') == 3
        assert text.count("<polyline") == 1

    def test_empty_world_svg(self, tmp_path, capsys):
        scen = tmp_path / "empty.json"
        scen.write_text(json.dumps({"start": [-1, 0], "goal": [1, 0]}))
        plan = tmp_path / "plan.json"
        assert run_cli(capsys, "plan", str(scen), "-o", str(plan))[0] == 0
        svg = tmp_path / "out.svg"
        assert run_cli(capsys, "render", str(plan), "-o", str(svg))[0] == 0
        text = svg.read_text()
        assert text.count('class="safety"') == 0
        assert text.count("<polyline") == 1

    def test_deterministic_bytes(self, scenario_paths, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        run_cli(capsys, "plan", str(scenario_paths["scenario1"]), "-o", str(plan))
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli(capsys, "render", str(plan), "-o", str(s1))
        run_cli(capsys, "render", str(plan), "-o", str(s2))
        assert s1.read_bytes() == s2.read_bytes()

    def test_trace_render(self, tmp_path, capsys):
        scen = tmp_path / "tiny.json"
        scen.write_text(
            json.dumps(
                {
                    "start": [-1.5, 0],
                    "goal": [1.5, 0],
                    "obstacles": [{"position": [0, 0.7], "model": "static"}],
                }
            )
        )
        trace = tmp_path / "trace.ndjson"
        assert run_cli(capsys, "simulate", str(scen), "-o", str(trace))[0] == 0
        svg = tmp_path / "trace.svg"
        assert run_cli(capsys, "render", str(trace), "-o", str(svg))[0] == 0
        text = svg.read_text()
        assert 'class="ghost"' in text
        assert text.count("<polyline") == 1

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("this is not json")
        code, _, err = run_cli(capsys, "render", str(bad), "-o", str(tmp_path / "x.svg"))
        assert code == 1
        assert err != ""
