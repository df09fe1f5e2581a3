"""Acceptance suite: one test per release criterion, with its tolerance pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""
import json
import math
import time

import numpy as np
import pytest

from kinoplan.cli import main as cli_main
from kinoplan.geometry import (
    KinodynamicLimits,
    MotionModel,
    ObstacleState,
    Vec2,
)
from kinoplan.homotopy import (
    HomotopySignature,
    signatures_equivalent,
    winding_signature,
)
from kinoplan.optimizer import (
    CLEARANCE_BUFFER,
    CostWeights,
    cost_gradient,
    optimize_candidate,
    trajectory_density,
)
from kinoplan.planner import Scenario, plan_once, simulate_run
from kinoplan.scenario_io import parse_scenario
from kinoplan.tracking import (
    Detection,
    kf_init,
    kf_predict,
    kf_update,
    obstacle_at,
    predict_position,
)
from test_optimizer import make_traj, random_problem, reference_cost

V_MAX = 0.5
START_GOAL_DISTANCE = 8.0
ETA_LO = START_GOAL_DISTANCE / V_MAX
ETA_HI = 3.0 * START_GOAL_DISTANCE / V_MAX


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
def test_criterion_1_scenario_reproduction(name, scenario_paths):
    scenario = parse_scenario(str(scenario_paths[name]))
    tic = time.perf_counter()
    trace = simulate_run(scenario, seed=0)
    wall = time.perf_counter() - tic
    ok = (
        trace.status == "reached"
        and trace.min_clearance >= 0.0
        and ETA_LO <= trace.eta <= ETA_HI
        and wall < 10.0
    )
    report(
        f"criterion 1 ({name})",
        ok,
        f"status={trace.status} min_clearance={trace.min_clearance:.3f} "
        f"eta={trace.eta:.2f}s (bracket [{ETA_LO:.0f}, {ETA_HI:.0f}]) wall={wall:.1f}s",
    )
    assert trace.status == "reached"
    assert trace.min_clearance >= 0.0
    assert ETA_LO <= trace.eta <= ETA_HI
    assert wall < 10.0


@pytest.mark.parametrize(
    "name,soft_ms,hard_ms",
    [("scenario1", 30.0, 150.0), ("scenario2", 50.0, 250.0), ("scenario3", 50.0, 250.0)],
)
def test_criterion_2_latency(name, soft_ms, hard_ms, scenario_paths):
    scenario = parse_scenario(str(scenario_paths[name]))
    plan_once(scenario, scenario.obstacles)  # warm-up
    times = []
    for _ in range(10):
        tic = time.perf_counter()
        plan_once(scenario, scenario.obstacles)
        times.append((time.perf_counter() - tic) * 1000.0)
    mean = float(np.mean(times))
    report(
        f"criterion 2 ({name})",
        mean < hard_ms,
        f"mean={mean:.1f}ms soft_target={soft_ms:.0f}ms "
        f"({'met' if mean < soft_ms else 'missed'}) hard_ceiling={hard_ms:.0f}ms",
    )
    assert mean < hard_ms


def test_criterion_3_homotopy_class_counts(scenario_paths):
    s1 = parse_scenario(str(scenario_paths["scenario1"]))
    s2 = parse_scenario(str(scenario_paths["scenario2"]))
    r1 = plan_once(s1, s1.obstacles)
    r2 = plan_once(s2, s2.obstacles)
    sigs1 = [HomotopySignature(c.signature) for c in r1.candidates]
    sigs2 = [HomotopySignature(c.signature) for c in r2.candidates]
    distinct1 = all(
        not signatures_equivalent(sigs1[i], sigs1[j])
        for i in range(len(sigs1))
        for j in range(i + 1, len(sigs1))
    )
    distinct2 = all(
        not signatures_equivalent(sigs2[i], sigs2[j])
        for i in range(len(sigs2))
        for j in range(i + 1, len(sigs2))
    )
    ok = len(sigs1) == 5 and len(sigs2) == 4 and distinct1 and distinct2
    report(
        "criterion 3",
        ok,
        f"scenario1 candidates={len(sigs1)} (want 5), scenario2 candidates={len(sigs2)} (want 4), "
        f"pairwise distinct={distinct1 and distinct2}",
    )
    assert len(sigs1) == 5 and distinct1
    assert len(sigs2) == 4 and distinct2


def test_criterion_4_kalman_vs_least_squares_oracle():
    true = ObstacleState(
        Vec2(-2, 0), Vec2(0.2, 0.3), Vec2(-0.01, -0.02), model=MotionModel.CONST_ACCELERATION
    )
    dt = 0.1
    steps = 200  # 20 s at 10 Hz
    tic = time.perf_counter()
    track = None
    ts, xs, ys = [], [], []
    for k in range(steps + 1):
        t = k * dt
        p = obstacle_at(true, t).position
        ts.append(t)
        xs.append(p.x)
        ys.append(p.y)
        det = Detection(0, p, t, 0.0)
        track = kf_init(det) if track is None else kf_update(kf_predict(track, dt), det)
    wall = time.perf_counter() - tic

    # filter-free oracle: quadratic least squares on the raw detections
    cx = np.polyfit(ts, xs, 2)
    cy = np.polyfit(ts, ys, 2)
    t_end = ts[-1]
    ls_pos = (np.polyval(cx, t_end), np.polyval(cy, t_end))
    ls_vel = (2 * cx[0] * t_end + cx[1], 2 * cy[0] * t_end + cy[1])
    ls_acc = (2 * cx[0], 2 * cy[0])

    truth = obstacle_at(true, t_end)
    pos_err = math.hypot(track.state[0] - truth.position.x, track.state[1] - truth.position.y)
    vel_err = math.hypot(track.state[2] - truth.velocity.x, track.state[3] - truth.velocity.y)
    acc_err = math.hypot(track.state[4] - true.acceleration.x, track.state[5] - true.acceleration.y)

    # oracle agrees with truth (noiseless fit of an exact quadratic)
    assert math.hypot(ls_pos[0] - truth.position.x, ls_pos[1] - truth.position.y) < 1e-9
    assert math.hypot(ls_vel[0] - truth.velocity.x, ls_vel[1] - truth.velocity.y) < 1e-9
    assert math.hypot(ls_acc[0] - true.acceleration.x, ls_acc[1] - true.acceleration.y) < 1e-9

    ok = pos_err < 1e-3 and vel_err < 1e-2 and acc_err < 1e-2 and wall < 1.0
    report(
        "criterion 4",
        ok,
        f"pos_err={pos_err:.2e} (<1e-3) vel_err={vel_err:.2e} (<1e-2) "
        f"acc_err={acc_err:.2e} (<1e-2) runtime={wall:.2f}s (<1)",
    )
    assert pos_err < 1e-3
    assert vel_err < 1e-2
    assert acc_err < 1e-2
    assert wall < 1.0


def test_criterion_5_prediction_exactness():
    table2 = [
        (Vec2(-2, 0), Vec2(0.2, 0.3), Vec2(0, 0), (0.0, 3.0)),
        (Vec2(2, 0), Vec2(-0.2, -0.3), Vec2(0, 0), (0.0, -3.0)),
        (Vec2(0, 0), Vec2(0.2, -0.2), Vec2(0, 0), (2.0, -2.0)),
    ]
    table3 = [
        (Vec2(-2, 0), Vec2(0.2, 0.3), Vec2(-0.01, -0.02), (-0.5, 2.0)),
        (Vec2(2, 0), Vec2(-0.2, -0.3), Vec2(0.03, 0.01), (1.5, -2.5)),
        (Vec2(0, 0), Vec2(0.2, -0.2), Vec2(-0.02, 0.03), (1.0, -0.5)),
    ]
    worst = 0.0
    for pos, vel, acc, expected in table2 + table3:
        model = (
            MotionModel.CONST_ACCELERATION if acc.norm() > 0 else MotionModel.CONST_VELOCITY
        )
        obs = ObstacleState(pos, vel, acc, model=model)
        got = predict_position(obs, 10.0)
        worst = max(worst, abs(got.x - expected[0]), abs(got.y - expected[1]))
    report("criterion 5", worst < 1e-12, f"max deviation={worst:.2e} (<1e-12)")
    assert worst < 1e-12


def test_criterion_6_gradient_check():
    rng = np.random.default_rng(2024)
    weights = CostWeights(1.0, 10.0, 0.5, 5.0, 5.0)
    limits = KinodynamicLimits(0.5, 0.5)
    eps = 1e-6
    tic = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        traj, obstacles = random_problem(rng, n=15)
        pts = traj.positions()
        dts = traj.durations()
        grad_p, grad_dt = cost_gradient(traj, obstacles, weights, limits)

        def cost_of(p, d):
            return reference_cost(
                make_traj(p.tolist(), d.tolist()), obstacles, weights, limits, CLEARANCE_BUFFER
            )

        fd_p = np.zeros_like(pts)
        for i in range(1, len(pts) - 1):
            for k in range(2):
                hi = pts.copy()
                lo = pts.copy()
                hi[i, k] += eps
                lo[i, k] -= eps
                fd_p[i, k] = (cost_of(hi, dts) - cost_of(lo, dts)) / (2 * eps)
        fd_dt = np.zeros_like(dts)
        for k in range(len(dts)):
            hi = dts.copy()
            lo = dts.copy()
            hi[k] += eps
            lo[k] -= eps
            fd_dt[k] = (cost_of(pts, hi) - cost_of(pts, lo)) / (2 * eps)
        scale = max(np.abs(fd_p).max(), np.abs(fd_dt).max(), 1e-8)
        worst = max(
            worst,
            np.abs(grad_p[1:-1] - fd_p[1:-1]).max() / scale,
            np.abs(grad_dt - fd_dt).max() / scale,
        )
    wall = time.perf_counter() - tic
    ok = worst < 1e-4 and wall < 5.0
    report(
        "criterion 6", ok, f"max rel err={worst:.2e} (<1e-4) over 100 trajectories, {wall:.1f}s (<5)"
    )
    assert worst < 1e-4
    assert wall < 5.0


def test_criterion_7_winding_side_oracle():
    rng = np.random.default_rng(99)
    start, goal = Vec2(-4, 0), Vec2(4, 0)
    agreements = 0
    usable = 0

    def random_one_sided_path(side):
        n = rng.integers(2, 5)
        xs = np.sort(rng.uniform(-3.8, 3.8, n))
        ys = side * rng.uniform(0.1, 2.0, n)
        return [start] + [Vec2(float(x), float(y)) for x, y in zip(xs, ys)] + [goal]

    def closest_approach_side(path, center, samples_per_edge=200):
        best = (math.inf, 0.0)
        for a, b in zip(path[:-1], path[1:]):
            for k in range(samples_per_edge + 1):
                f = k / samples_per_edge
                x = a.x + (b.x - a.x) * f
                y = a.y + (b.y - a.y) * f
                d = math.hypot(x - center.x, y - center.y)
                if d < best[0]:
                    best = (d, y)
        return best[1]

    for _ in range(1000):
        center = Vec2(float(rng.uniform(-3.0, 3.0)), 0.0)
        obstacle = [ObstacleState(center, safety_radius=0.05)]
        pa = random_one_sided_path(rng.choice([-1.0, 1.0]))
        pb = random_one_sided_path(rng.choice([-1.0, 1.0]))
        ya = closest_approach_side(pa, center)
        yb = closest_approach_side(pb, center)
        if abs(ya) < 0.05 or abs(yb) < 0.05:
            continue  # ambiguous side call
        usable += 1
        oracle_same_side = (ya > 0) == (yb > 0)
        got = signatures_equivalent(
            winding_signature(pa, obstacle), winding_signature(pb, obstacle)
        )
        agreements += got == oracle_same_side
    ok = usable > 900 and agreements == usable
    report("criterion 7", ok, f"agreement {agreements}/{usable} unambiguous pairs (want 100%)")
    assert usable > 900
    assert agreements == usable


def test_criterion_8_density_after_bend():
    obstacles = (ObstacleState(Vec2(0, 0)),)
    scenario = Scenario(start=Vec2(-2, 0), goal=Vec2(2, 0), obstacles=obstacles, max_classes=2)
    result = plan_once(scenario, obstacles)
    traj = result.chosen
    dens = trajectory_density(traj, scenario.density)
    params = scenario.density

    from kinoplan.optimizer import state_curvatures

    p = traj.positions()
    kappa = state_curvatures(p)
    seg = np.diff(p, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    bend_seg = (kappa[:-1] > params.kappa_thresh) | (kappa[1:] > params.kappa_thresh)

    bounds_ok = bool(lengths.max() <= params.d_max + 1e-9)
    if bend_seg.any():
        bounds_ok = bounds_ok and bool(lengths[bend_seg].max() <= params.d_max_bend + 1e-9)
    for i in range(1, len(lengths)):
        if lengths[i] < params.d_min - 1e-9 and lengths[i - 1] < params.d_min - 1e-9:
            bounds_ok = bounds_ok and max(kappa[i - 1 : i + 2]) >= params.kappa_thresh

    ok = (
        dens.bend_mean is not None
        and dens.straight_mean is not None
        and dens.bend_mean >= dens.straight_mean
        and bounds_ok
    )
    report(
        "criterion 8",
        ok,
        f"bend_mean={dens.bend_mean and round(dens.bend_mean, 2)} >= "
        f"straight_mean={dens.straight_mean and round(dens.straight_mean, 2)}, "
        f"spacing bounds ok={bounds_ok}",
    )
    assert dens.bend_mean is not None
    assert dens.straight_mean is not None
    assert dens.bend_mean >= dens.straight_mean
    assert bounds_ok


def test_criterion_9_descent_monotonicity(scenario_paths):
    violations = 0
    steps = 0

    def monitor(before, after):
        nonlocal violations, steps
        steps += 1
        if after >= before:
            violations += 1

    for name in ("scenario1", "scenario2", "scenario3"):
        scenario = parse_scenario(str(scenario_paths[name]))
        plan_once(scenario, scenario.obstacles, on_accept=monitor)
    ok = steps > 0 and violations == 0
    report("criterion 9", ok, f"{steps} accepted descent steps, {violations} cost increases")
    assert steps > 0
    assert violations == 0


def test_criterion_10_plan_determinism(scenario_paths, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    scen = str(scenario_paths["scenario1"])
    assert cli_main(["plan", scen, "-o", str(out_a), "--seed", "123"]) == 0
    assert cli_main(["plan", scen, "-o", str(out_b), "--seed", "123"]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    report(
        "criterion 10",
        identical,
        f"byte-identical={identical} ({len(out_a.read_bytes())} bytes, "
        f"{doc['state_count']} states, eta={doc['eta']:.2f}s)",
    )
    assert identical
