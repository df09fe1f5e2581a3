import itertools
import math
from typing import Callable, Optional

import numpy as np
import pytest

from kinoplan.collision import _ObstacleArrays
from kinoplan.geometry import (
    KinodynamicLimits,
    MotionModel,
    ObstacleState,
    Trajectory,
    Vec2,
    arc_length,
)
from kinoplan.homotopy import (
    HomotopySignature,
    SeedPath,
    enumerate_seed_paths,
    signatures_equivalent,
    winding_signature,
)
from kinoplan.optimizer import (
    CLEARANCE_BUFFER,
    DT_FLOOR,
    MAX_INNER_ITERS,
    OUTER_ROUNDS,
    REL_TOL,
    CostWeights,
    DensityParams,
    OptimizationError,
    OptimizeReport,
    _adapt_arrays,
    _evaluate,
    _gradient,
    _seed_arrays,
    _EPS,
    adapt_density,
    cost_gradient,
    dynamic_weights,
    optimize_candidate,
    state_curvatures,
    total_cost,
    trajectory_density,
)
from kinoplan.planner import simulate_run
from kinoplan.scenario_io import parse_scenario, parse_scenario_dict
from test_homotopy import CORRIDOR_DOC

LIMITS = KinodynamicLimits(0.5, 0.5)
WEIGHTS = CostWeights(1.0, 10.0, 0.5, 5.0, 5.0)


def make_traj(points, dts):
    return Trajectory.from_waypoints([Vec2(*p) for p in points], list(dts))


def reference_cost(traj, obstacles, w, limits, clearance):
    """Straight-line re-implementation of the objective with plain floats."""
    pts = [(s.position.x, s.position.y) for s in traj.states]
    dts = [s.dt for s in traj.states[:-1]]
    n = len(pts)
    cost = w.w_time * sum(dts)

    times = [0.0]
    for dt in dts:
        times.append(times[-1] + dt)
    for i, (x, y) in enumerate(pts):
        t = times[i]
        for obs in obstacles:
            cx = obs.position.x + obs.velocity.x * t + 0.5 * obs.acceleration.x * t * t
            cy = obs.position.y + obs.velocity.y * t + 0.5 * obs.acceleration.y * t * t
            h = max(0.0, obs.safety_radius + clearance - math.hypot(x - cx, y - cy))
            cost += w.w_obstacle * h * h

    for i in range(1, n - 1):
        ax = math.dist(pts[i], pts[i - 1])
        bx = math.dist(pts[i + 1], pts[i])
        cx = math.dist(pts[i + 1], pts[i - 1])
        if min(ax, bx, cx) < 1e-9:
            continue
        cross = (pts[i][0] - pts[i - 1][0]) * (pts[i + 1][1] - pts[i][1]) - (
            pts[i][1] - pts[i - 1][1]
        ) * (pts[i + 1][0] - pts[i][0])
        kappa = 2.0 * cross / (ax * bx * cx)
        cost += w.w_smooth * kappa * kappa * 0.5 * (ax + bx)

    vels = []
    for i in range(n - 1):
        ex = (pts[i + 1][0] - pts[i][0]) / dts[i]
        ey = (pts[i + 1][1] - pts[i][1]) / dts[i]
        vels.append((ex, ey))
        h = max(0.0, math.hypot(ex, ey) - limits.v_max)
        cost += w.w_vel * h * h

    for i in range(n - 2):
        tau = 0.5 * (dts[i] + dts[i + 1])
        amag = math.hypot(vels[i + 1][0] - vels[i][0], vels[i + 1][1] - vels[i][1]) / tau
        h = max(0.0, amag - limits.a_max)
        cost += w.w_acc * h * h
    return cost


def random_problem(rng, n=15):
    pts = np.cumsum(rng.normal(0, 0.3, (n, 2)), axis=0)
    dts = rng.uniform(0.05, 0.6, n - 1)
    traj = make_traj(pts.tolist(), dts.tolist())
    obstacles = [
        ObstacleState(
            Vec2(*rng.uniform(-1.5, 1.5, 2)),
            Vec2(*rng.uniform(-0.2, 0.2, 2)),
            model=MotionModel.CONST_VELOCITY,
        )
        for _ in range(3)
    ]
    return traj, obstacles


class TestTotalCost:
    def test_straight_unhindered_is_pure_time(self):
        # two states, speed v_max/2: every penalty term is exactly zero
        traj = make_traj([(-4, 0), (4, 0)], [32.0])
        assert total_cost(traj, [], WEIGHTS, LIMITS) == WEIGHTS.w_time * 32.0

    def test_state_at_obstacle_center_hits_max_hinge(self):
        obs = [ObstacleState(Vec2(0, 0), safety_radius=0.5)]
        traj = make_traj([(-1, 0), (0, 0), (1, 0)], [4.0, 4.0])
        got = total_cost(traj, obs, WEIGHTS, LIMITS)
        expected_obstacle = WEIGHTS.w_obstacle * (0.5 + CLEARANCE_BUFFER) ** 2
        assert got - WEIGHTS.w_time * 8.0 == pytest.approx(expected_obstacle, rel=1e-12)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            traj, obstacles = random_problem(rng, n=10)
            got = total_cost(traj, obstacles, WEIGHTS, LIMITS)
            want = reference_cost(traj, obstacles, WEIGHTS, LIMITS, CLEARANCE_BUFFER)
            assert got == pytest.approx(want, rel=1e-9)


class TestCostGradient:
    def test_straight_constant_speed_time_only(self):
        traj = make_traj([(0, 0), (1, 0), (2, 0), (3, 0)], [4.0, 4.0, 4.0])
        grad_p, grad_dt = cost_gradient(traj, [], WEIGHTS, LIMITS)
        assert np.allclose(grad_p, 0.0)
        assert np.allclose(grad_dt, WEIGHTS.w_time)

    def test_fixed_endpoints_report_zero(self):
        rng = np.random.default_rng(3)
        traj, obstacles = random_problem(rng)
        grad_p, _ = cost_gradient(traj, obstacles, WEIGHTS, LIMITS)
        assert grad_p[0].tolist() == [0.0, 0.0]
        assert grad_p[-1].tolist() == [0.0, 0.0]

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        eps = 1e-6
        worst = 0.0
        for _ in range(20):
            traj, obstacles = random_problem(rng)
            pts = traj.positions()
            dts = traj.durations()
            grad_p, grad_dt = cost_gradient(traj, obstacles, WEIGHTS, LIMITS)

            def cost_of(p, d):
                return reference_cost(
                    make_traj(p.tolist(), d.tolist()), obstacles, WEIGHTS, LIMITS, CLEARANCE_BUFFER
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
        assert worst < 1e-4


class TestDynamicWeights:
    def test_round_zero_is_identity(self):
        assert dynamic_weights(WEIGHTS, 0) == WEIGHTS

    def test_growth(self):
        assert dynamic_weights(WEIGHTS, 2).w_obstacle == WEIGHTS.w_obstacle * 4.0

    def test_cap(self):
        capped = dynamic_weights(WEIGHTS, 50)
        assert capped.w_obstacle == WEIGHTS.w_obstacle * 16.0

    def test_other_weights_untouched(self):
        out = dynamic_weights(WEIGHTS, 3)
        assert (out.w_time, out.w_smooth, out.w_vel, out.w_acc) == (
            WEIGHTS.w_time,
            WEIGHTS.w_smooth,
            WEIGHTS.w_vel,
            WEIGHTS.w_acc,
        )


class TestDensityParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DensityParams(d_min=0.2, d_max=0.3, d_max_bend=0.1)


class TestAdaptDensity:
    def test_fixed_point(self):
        traj = make_traj([(0, 0), (0.2, 0), (0.4, 0)], [1.0, 1.0])
        out = adapt_density(traj, DensityParams())
        assert [s.position for s in out.states] == [s.position for s in traj.states]

    def test_long_segment_subdivided(self):
        params = DensityParams(d_min=0.05, d_max=0.4, d_max_bend=0.2)
        traj = make_traj([(0, 0), (1, 0)], [4.0])
        out = adapt_density(traj, params)
        pts = out.positions()
        spacings = np.hypot(*np.diff(pts, axis=0).T)
        assert len(out.states) >= len(traj.states) + 2
        assert spacings.max() <= 0.4 + 1e-12
        assert out.total_time == pytest.approx(4.0)  # splits preserve timing

    def test_bend_gets_tighter_spacing_than_straights(self):
        # right-angle corner: curvature spike at the bend
        pts = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]
        traj = make_traj(pts, [2.0] * 4)
        params = DensityParams()
        out = adapt_density(traj, params)
        p = out.positions()
        from kinoplan.optimizer import state_curvatures

        kappa = state_curvatures(p)
        seg = np.diff(p, axis=0)
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        bend_seg = (kappa[:-1] > params.kappa_thresh) | (kappa[1:] > params.kappa_thresh)
        assert bend_seg.any()
        assert lengths[bend_seg].max() <= params.d_max_bend + 1e-12
        assert lengths.max() <= params.d_max + 1e-12

    def test_dense_straight_run_is_pruned(self):
        xs = np.linspace(0, 0.2, 11)  # 0.02 m spacing, all < d_min
        traj = make_traj([(x, 0) for x in xs], [0.1] * 10)
        out = adapt_density(traj, DensityParams())
        assert len(out.states) < len(traj.states)
        assert out.total_time == pytest.approx(1.0)
        assert out.start == traj.start and out.goal == traj.goal

    def test_endpoints_never_touched(self):
        traj = make_traj([(0, 0), (1.7, 0.3)], [5.0])
        out = adapt_density(traj, DensityParams())
        assert out.start == traj.start
        assert out.goal == traj.goal


class TestTrajectoryDensity:
    def test_aggregate_is_states_per_meter(self):
        n = 81
        xs = np.linspace(0, 8.5, n)
        traj = make_traj([(x, 0) for x in xs], [0.25] * (n - 1))
        report = trajectory_density(traj)
        assert report.states_per_meter == pytest.approx(81 / 8.5, rel=1e-12)

    def test_straight_has_no_bend_region(self):
        traj = make_traj([(0, 0), (1, 0), (2, 0)], [1, 1])
        report = trajectory_density(traj)
        assert report.bend_mean is None
        assert report.straight_mean is not None

    def test_zero_length_rejected(self):
        traj = make_traj([(0, 0), (0, 0)], [1.0])
        with pytest.raises(ValueError):
            trajectory_density(traj)


def straight_seed(start, goal, obstacles=()):
    sig = winding_signature([start, goal], obstacles) if obstacles else HomotopySignature(())
    return SeedPath((start, goal), sig, start.distance_to(goal))


class TestOptimizeCandidate:
    def test_no_obstacles_analytic_optimum(self):
        seed = straight_seed(Vec2(-4, 0), Vec2(4, 0))
        traj, report = optimize_candidate(seed, [])
        assert report.converged
        assert report.signature_preserved
        assert arc_length(traj) == pytest.approx(8.0, rel=0.01)
        assert traj.total_time == pytest.approx(8.0 / 0.5, rel=0.01)

    def test_endpoints_pinned(self):
        obstacles = [ObstacleState(Vec2(0, 0))]
        seeds = enumerate_seed_paths(Vec2(-2, 0), Vec2(2, 0), obstacles, 2, 0.0)
        traj, _ = optimize_candidate(seeds[0], obstacles)
        assert traj.start == Vec2(-2, 0)
        assert traj.goal == Vec2(2, 0)

    def test_table1_two_sides_stay_distinct(self):
        obstacles = (
            ObstacleState(Vec2(-2, 0)),
            ObstacleState(Vec2(2, 0)),
            ObstacleState(Vec2(0, 0)),
        )
        seeds = enumerate_seed_paths(Vec2(-4, 0), Vec2(4, 0), obstacles, 5, 0.0)
        above = next(s for s in seeds if s.waypoints[1].y > 0)
        below = next(s for s in seeds if s.waypoints[1].y < 0)
        ta, ra = optimize_candidate(above, obstacles)
        tb, rb = optimize_candidate(below, obstacles)
        assert ra.signature_preserved and rb.signature_preserved
        sig_a = winding_signature([s.position for s in ta.states], obstacles)
        sig_b = winding_signature([s.position for s in tb.states], obstacles)
        from kinoplan.homotopy import signatures_equivalent

        assert not signatures_equivalent(sig_a, sig_b)

    def test_signature_flip_is_flagged(self):
        # seed hops over a tiny obstacle; with the obstacle term disabled,
        # descent flattens the costly bump across it and flips the class
        obstacle = ObstacleState(Vec2(0, 0.1), safety_radius=0.02)
        waypoints = (Vec2(-0.5, 0), Vec2(0, 0.2), Vec2(0.5, 0))
        seed = SeedPath(
            waypoints, winding_signature(waypoints, [obstacle]), 2 * math.hypot(0.5, 0.2)
        )
        weights = CostWeights(1.0, 0.0, 0.5, 200.0, 200.0)
        traj, report = optimize_candidate(seed, [obstacle], weights)
        assert not report.signature_preserved

    def test_monotone_descent_all_accepted_steps(self):
        obstacles = (
            ObstacleState(Vec2(-2, 0)),
            ObstacleState(Vec2(2, 0)),
            ObstacleState(Vec2(0, 0)),
        )
        seeds = enumerate_seed_paths(Vec2(-4, 0), Vec2(4, 0), obstacles, 5, 0.0)
        steps: list[tuple[float, float]] = []
        for seed in seeds:
            optimize_candidate(seed, obstacles, on_accept=lambda a, b: steps.append((a, b)))
        assert steps
        assert all(after < before for before, after in steps)

    def test_bit_identical_reruns(self):
        obstacles = (ObstacleState(Vec2(0, 0)),)
        seeds = enumerate_seed_paths(Vec2(-4, 0), Vec2(4, 0), obstacles, 2, 0.0)
        t1, r1 = optimize_candidate(seeds[0], obstacles)
        t2, r2 = optimize_candidate(seeds[0], obstacles)
        assert r1 == r2
        assert t1 == t2

    def test_density_bounds_hold_after_optimization(self):
        params = DensityParams()
        obstacles = (ObstacleState(Vec2(0, 0)),)
        seeds = enumerate_seed_paths(Vec2(-2, 0), Vec2(2, 0), obstacles, 2, 0.0)
        traj, _ = optimize_candidate(seeds[0], obstacles, density=params)
        from kinoplan.optimizer import state_curvatures

        p = traj.positions()
        kappa = state_curvatures(p)
        seg = np.diff(p, axis=0)
        lengths = np.hypot(seg[:, 0], seg[:, 1])
        bend_seg = (kappa[:-1] > params.kappa_thresh) | (kappa[1:] > params.kappa_thresh)
        assert lengths.max() <= params.d_max + 1e-9
        if bend_seg.any():
            assert lengths[bend_seg].max() <= params.d_max_bend + 1e-9
        for i in range(1, len(lengths)):
            if lengths[i] < params.d_min - 1e-9 and lengths[i - 1] < params.d_min - 1e-9:
                assert max(kappa[i - 1], kappa[i], kappa[i + 1]) >= params.kappa_thresh


# ---------------------------------------------------------------------------
# Oracle: the optimizer kernels as they were before the bounded evaluation,
# the reused evaluation cache, the array-pass density adaptation and the
# fused kernels, with the helpers they called frozen alongside them. The
# current kernels must reproduce them bit for bit.


class RefObstacleArrays:
    """Column layout of obstacle states for vectorized kernels."""

    def __init__(self, obstacles) -> None:
        self.count = len(obstacles)
        if self.count:
            self.pos = np.array([(o.position.x, o.position.y) for o in obstacles])
            self.vel = np.array([(o.velocity.x, o.velocity.y) for o in obstacles])
            self.acc = np.array([(o.acceleration.x, o.acceleration.y) for o in obstacles])
            self.radius = np.array([o.safety_radius for o in obstacles])
        else:
            self.pos = self.vel = self.acc = np.zeros((0, 2))
            self.radius = np.zeros(0)


def ref_curvature_terms(p: np.ndarray):
    """Menger curvature pieces for interior points of an (N,2) polyline."""
    u = p[1:-1] - p[:-2]
    v = p[2:] - p[1:-1]
    w = p[2:] - p[:-2]
    a = np.hypot(u[:, 0], u[:, 1])
    b = np.hypot(v[:, 0], v[:, 1])
    c = np.hypot(w[:, 0], w[:, 1])
    valid = (a > 1e-9) & (b > 1e-9) & (c > 1e-9)
    denom = np.where(valid, a * b * c, 1.0)
    cross = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    kappa = np.where(valid, 2.0 * cross / denom, 0.0)
    return u, v, w, a, b, c, cross, kappa, valid


def ref_state_curvatures(p: np.ndarray) -> np.ndarray:
    n = len(p)
    out = np.zeros(n)
    if n >= 3:
        out[1:-1] = np.abs(ref_curvature_terms(p)[7])
    return out


def ref_obstacle_geometry(p: np.ndarray, dts: np.ndarray, obs: RefObstacleArrays):
    """Per-state/per-obstacle displacement planes against predicted centers."""
    t = np.empty(len(p))
    t[0] = 0.0
    np.cumsum(dts, out=t[1:])
    tc = t[:, None]
    tc2 = 0.5 * tc * tc
    dx = p[:, 0][:, None] - (obs.pos[None, :, 0] + obs.vel[None, :, 0] * tc + obs.acc[None, :, 0] * tc2)
    dy = p[:, 1][:, None] - (obs.pos[None, :, 1] + obs.vel[None, :, 1] * tc + obs.acc[None, :, 1] * tc2)
    dist = np.sqrt(dx * dx + dy * dy)
    return t, dx, dy, dist


def ref_cost_arrays(
    p: np.ndarray,
    dts: np.ndarray,
    obs: RefObstacleArrays,
    weights: CostWeights,
    limits: KinodynamicLimits,
    clearance: float,
) -> float:
    n = len(p)
    cost = weights.w_time * float(dts.sum())

    seg = p[1:] - p[:-1]
    e = np.hypot(seg[:, 0], seg[:, 1])

    if obs.count:
        _, _, _, dist = ref_obstacle_geometry(p, dts, obs)
        h = np.maximum(obs.radius[None, :] + clearance - dist, 0.0)
        cost += weights.w_obstacle * float((h * h).sum())

    if n >= 3 and weights.w_smooth > 0.0:  # smoothness needs an interior point
        _, _, _, a, b, _, _, kappa, _ = ref_curvature_terms(p)
        cost += weights.w_smooth * float((kappa * kappa * 0.5 * (a + b)).sum())

    speed = e / dts
    hv = np.maximum(speed - limits.v_max, 0.0)
    cost += weights.w_vel * float((hv * hv).sum())

    if n >= 3:
        vel = seg / dts[:, None]
        dv = vel[1:] - vel[:-1]
        tau = 0.5 * (dts[:-1] + dts[1:])
        amag = np.hypot(dv[:, 0], dv[:, 1]) / tau
        ha = np.maximum(amag - limits.a_max, 0.0)
        cost += weights.w_acc * float((ha * ha).sum())

    return cost


def ref_cost_grad_arrays(
    p: np.ndarray,
    dts: np.ndarray,
    obs: RefObstacleArrays,
    weights: CostWeights,
    limits: KinodynamicLimits,
    clearance: float,
):
    n = len(p)
    grad_p = np.zeros_like(p)
    grad_dt = np.full(len(dts), weights.w_time)
    cost = weights.w_time * float(dts.sum())

    seg = p[1:] - p[:-1]
    e = np.hypot(seg[:, 0], seg[:, 1])

    if obs.count:
        t, dx, dy, dist = ref_obstacle_geometry(p, dts, obs)
        h = np.maximum(obs.radius[None, :] + clearance - dist, 0.0)
        cost += weights.w_obstacle * float((h * h).sum())
        active = (h > 0.0) & (dist > _EPS)
        if active.any():
            coef = np.where(active, 2.0 * weights.w_obstacle * h / np.where(active, dist, 1.0), 0.0)
            grad_p[:, 0] -= (coef * dx).sum(axis=1)
            grad_p[:, 1] -= (coef * dy).sum(axis=1)
            # Times enter through the predicted centers; each dt moves every
            # later state's sampling time.
            tc = t[:, None]
            cdot_x = obs.vel[None, :, 0] + obs.acc[None, :, 0] * tc
            cdot_y = obs.vel[None, :, 1] + obs.acc[None, :, 1] * tc
            s_i = (coef * (dx * cdot_x + dy * cdot_y)).sum(axis=1)
            tail = np.cumsum(s_i[::-1])[::-1]
            grad_dt += tail[1:]

    if n >= 3 and weights.w_smooth > 0.0:
        u, v, w, a, b, c, cross, kappa, valid = ref_curvature_terms(p)
        ell = 0.5 * (a + b)
        cost += weights.w_smooth * float((kappa * kappa * ell).sum())
        safe_abc = np.where(valid, a * b * c, 1.0)
        sa = np.where(valid, a, 1.0)
        sb = np.where(valid, b, 1.0)
        sc = np.where(valid, c, 1.0)
        dk = np.where(valid, 2.0 * weights.w_smooth * kappa * ell, 0.0)  # dJ/dkappa
        dl = np.where(valid, weights.w_smooth * kappa * kappa, 0.0)      # dJ/dell
        # kappa = 2*cross/(a*b*c)
        g_cross = dk * 2.0 / safe_abc
        g_a = -dk * kappa / sa + 0.5 * dl
        g_b = -dk * kappa / sb + 0.5 * dl
        g_c = -dk * kappa / sc
        uh = u / sa[:, None]
        vh = v / sb[:, None]
        wh = w / sc[:, None]
        # perp(x) = (-x_y, x_x); d(cross)/dp for the three stencil points
        cross_dprev = np.empty_like(u)
        cross_dprev[:, 0] = -v[:, 1]
        cross_dprev[:, 1] = v[:, 0]
        cross_dmid = np.empty_like(u)
        cross_dmid[:, 0] = w[:, 1]
        cross_dmid[:, 1] = -w[:, 0]
        cross_dnext = np.empty_like(u)
        cross_dnext[:, 0] = -u[:, 1]
        cross_dnext[:, 1] = u[:, 0]
        grad_p[:-2] += g_cross[:, None] * cross_dprev - g_a[:, None] * uh - g_c[:, None] * wh
        grad_p[1:-1] += g_cross[:, None] * cross_dmid + g_a[:, None] * uh - g_b[:, None] * vh
        grad_p[2:] += g_cross[:, None] * cross_dnext + g_b[:, None] * vh + g_c[:, None] * wh

    speed = e / dts
    hv = np.maximum(speed - limits.v_max, 0.0)
    cost += weights.w_vel * float((hv * hv).sum())
    act_v = (hv > 0.0) & (e > _EPS)
    if act_v.any():
        coef = np.where(act_v, 2.0 * weights.w_vel * hv / (np.where(act_v, e, 1.0) * dts), 0.0)
        gseg = coef[:, None] * seg
        grad_p[1:] += gseg
        grad_p[:-1] -= gseg
        grad_dt += np.where(act_v, -2.0 * weights.w_vel * hv * e / (dts * dts), 0.0)

    if n >= 3:
        vel = seg / dts[:, None]
        dv = vel[1:] - vel[:-1]
        tau = 0.5 * (dts[:-1] + dts[1:])
        nrm = np.hypot(dv[:, 0], dv[:, 1])
        amag = nrm / tau
        ha = np.maximum(amag - limits.a_max, 0.0)
        cost += weights.w_acc * float((ha * ha).sum())
        act_a = (ha > 0.0) & (nrm > _EPS)
        if act_a.any():
            g = np.where(act_a, 2.0 * weights.w_acc * ha, 0.0)
            u_vec = (g / (np.where(act_a, nrm, 1.0) * tau))[:, None] * dv  # dJ/d(dv)
            inv0 = 1.0 / dts[:-1]
            inv1 = 1.0 / dts[1:]
            grad_p[:-2] += u_vec * inv0[:, None]
            grad_p[1:-1] -= u_vec * (inv0 + inv1)[:, None]
            grad_p[2:] += u_vec * inv1[:, None]
            dtau = -0.5 * g * nrm / (tau * tau)
            grad_dt[:-1] += np.einsum("mk,mk->m", u_vec, vel[:-1]) * inv0 + dtau
            grad_dt[1:] += -np.einsum("mk,mk->m", u_vec, vel[1:]) * inv1 + dtau

    grad_p[0] = 0.0
    grad_p[-1] = 0.0
    return cost, grad_p, grad_dt


def ref_adapt_arrays(
    p: np.ndarray, dts: np.ndarray, params: DensityParams
) -> tuple[np.ndarray, np.ndarray]:
    pts = [row.copy() for row in p]
    durs = list(dts)
    for _ in range(200):
        changed = False

        # Insertion: split any segment longer than its applicable bound.
        kappa = ref_state_curvatures(np.array(pts))
        bend = kappa > params.kappa_thresh
        i = 0
        while i < len(durs):
            length = float(np.hypot(*(pts[i + 1] - pts[i])))
            limit = params.d_max_bend if (bend[i] or bend[i + 1]) else params.d_max
            if length > limit + 1e-12:
                mid = 0.5 * (pts[i] + pts[i + 1])
                half = 0.5 * durs[i]
                pts.insert(i + 1, mid)
                durs[i] = half
                durs.insert(i + 1, half)
                # Splitting is shape-preserving, so bend flags stay usable;
                # extend them for the new collinear state (curvature 0 there).
                bend = np.insert(bend, i + 1, False)
                changed = True
            i += 1

        # Removal: drop interior states in over-dense straight stretches,
        # but only when the merged segment stays within its bound.
        removed = True
        while removed:
            removed = False
            arr = np.array(pts)
            kappa = ref_state_curvatures(arr)
            bend = kappa > params.kappa_thresh
            for i in range(1, len(pts) - 1):
                la = float(np.hypot(*(pts[i] - pts[i - 1])))
                lb = float(np.hypot(*(pts[i + 1] - pts[i])))
                if la >= params.d_min or lb >= params.d_min or bend[i]:
                    continue
                merged = float(np.hypot(*(pts[i + 1] - pts[i - 1])))
                limit = params.d_max_bend if (bend[i - 1] or bend[i + 1]) else params.d_max
                if merged > limit:
                    continue
                pts.pop(i)
                durs[i - 1] += durs.pop(i)
                removed = True
                changed = True
                break

        if not changed:
            break
    return np.array(pts), np.array(durs)


def ref_descend(
    p: np.ndarray,
    dts: np.ndarray,
    obs: RefObstacleArrays,
    weights: CostWeights,
    limits: KinodynamicLimits,
    clearance: float,
    max_inner: int,
    rel_tol: float,
    on_accept: Optional[Callable[[float, float], None]],
    alphas: tuple[float, float] = (0.1, 0.1),
) -> tuple[np.ndarray, np.ndarray, float, int, bool, tuple[float, float]]:
    """Monotone gradient descent with per-block spectral (Barzilai-Borwein)
    step sizes for positions and durations, guarded by a halving line search
    that only ever accepts a strict cost decrease.

    The two blocks live on very different curvature scales (obstacle walls vs
    the linear time term), so a shared step size strangles whichever block is
    momentarily free to move. ``alphas`` carries the step scales in from the
    previous round.
    """
    cost, grad_p, grad_dt = ref_cost_grad_arrays(p, dts, obs, weights, limits, clearance)
    if not math.isfinite(cost):
        raise OptimizationError("non-finite cost at descent start")
    alpha_p, alpha_dt = alphas
    iters = 0
    converged = False

    def bb_step(s: np.ndarray, y: np.ndarray, fallback: float) -> float:
        ss = float((s * s).sum())
        sy = float((s * y).sum())
        if sy > 1e-16:
            return min(max(ss / sy, 1e-8), 1e3)
        return min(fallback * 2.0, 1e3)

    for _ in range(max_inner):
        theta = 1.0
        accepted = False
        for _ in range(16):
            p_try = p - (theta * alpha_p) * grad_p
            dt_try = np.maximum(dts - (theta * alpha_dt) * grad_dt, DT_FLOOR)
            c_try = ref_cost_arrays(p_try, dt_try, obs, weights, limits, clearance)
            if math.isfinite(c_try) and c_try < cost:
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            converged = True
            break
        if on_accept is not None:
            on_accept(cost, c_try)
        rel = (cost - c_try) / max(abs(cost), _EPS)
        iters += 1
        if rel < rel_tol:
            p, dts, cost = p_try, dt_try, c_try
            converged = True
            break
        check, gp_new, gdt_new = ref_cost_grad_arrays(
            p_try, dt_try, obs, weights, limits, clearance
        )
        if not math.isfinite(check):
            raise OptimizationError("non-finite cost during descent")
        alpha_p = bb_step(p_try - p, gp_new - grad_p, theta * alpha_p)
        alpha_dt = bb_step(dt_try - dts, gdt_new - grad_dt, theta * alpha_dt)
        p, dts, cost = p_try, dt_try, c_try
        grad_p, grad_dt = gp_new, gdt_new
    return p, dts, cost, iters, converged, (alpha_p, alpha_dt)


def ref_optimize_candidate(seed, obstacles, weights, limits, density):
    p, dts = _seed_arrays(seed, density.d_max, 0.5 * limits.v_max)
    obs = RefObstacleArrays(obstacles)
    iterations = 0
    converged = False
    for outer in range(OUTER_ROUNDS):
        p, dts, _, n_iters, converged, _ = ref_descend(
            p, dts, obs, dynamic_weights(weights, outer), limits, CLEARANCE_BUFFER,
            MAX_INNER_ITERS, REL_TOL, None,
        )
        iterations += n_iters
        p, dts = ref_adapt_arrays(p, dts, density)
    final_cost = ref_cost_arrays(p, dts, obs, weights, limits, CLEARANCE_BUFFER)
    sig = winding_signature([Vec2(float(x), float(y)) for x, y in p], obstacles)
    report = OptimizeReport(
        final_cost=final_cost,
        iterations=iterations,
        converged=converged,
        signature_preserved=signatures_equivalent(sig, seed.signature),
    )
    return p, dts, report


ORACLE_WEIGHTS = (
    WEIGHTS,
    CostWeights(),
    CostWeights(1.0, 0.0, 0.5, 200.0, 200.0),
    CostWeights(1.0, 10.0, 0.0, 200.0, 200.0),
    CostWeights(0.0, 10.0, 0.5, 0.0, 5.0),
)


def oracle_problems(seed, count):
    """random_problem draws of 2..30 states under every ORACLE_WEIGHTS entry;
    a quarter without obstacles, a quarter with obstacles on the path, and
    half re-timed near v_max so that no term swamps the others."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        traj, obstacles = random_problem(rng, n=int(rng.integers(2, 31)))
        p = traj.positions()
        dts = traj.durations()
        if k % 2:
            seg = np.diff(p, axis=0)
            dts = np.maximum(np.hypot(seg[:, 0], seg[:, 1]) / rng.uniform(0.3, 0.6, len(seg)), 0.01)
        if k % 4 == 0:
            obstacles = []
        elif k % 4 == 1:
            obstacles = [
                ObstacleState(Vec2(*(p[i] + rng.normal(0.0, 0.1, 2))), o.velocity, safety_radius=0.4,
                              model=MotionModel.CONST_VELOCITY)
                for o, i in zip(obstacles, rng.integers(0, len(p), len(obstacles)))
            ]
        weights = ORACLE_WEIGHTS[k % len(ORACLE_WEIGHTS)]
        yield p, dts, obstacles, weights


ORACLE_DENSITIES = (
    DensityParams(),
    DensityParams(0.1, 0.5, 0.2, 1.5),
    DensityParams(0.2, 0.3, 0.25, 0.5),  # merges can overrun both bounds
)


def oracle_polylines(seed, params):
    """Random, curved and near-threshold polylines."""
    rng = np.random.default_rng(seed)
    for k in range(100):
        n = int(rng.integers(2, 40))
        scale = (0.02, 0.08, 0.2, 0.5)[k % 4]
        yield np.cumsum(rng.normal(0.0, scale, (n, 2)), axis=0)
        radius = rng.uniform(0.1, 3.0)
        theta = np.linspace(0.0, rng.uniform(0.3, 2.0 * math.pi), n)
        yield radius * np.column_stack([np.cos(theta), np.sin(theta)])
    spacings = (params.d_min, params.d_max_bend, params.d_max)
    # full spacings test the split bounds, half spacings the merge bounds
    for step in [s + nudge for s in spacings for nudge in (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)] + [
        0.5 * (s + nudge) for s in spacings for nudge in (-1e-12, 0.0, 1e-12)
    ]:
        xs = np.arange(12) * step
        yield np.column_stack([xs, np.zeros(12)])
        # a right-angle corner at the middle state
        yield np.column_stack([
            np.concatenate([xs[:6], np.full(6, xs[5])]),
            np.concatenate([np.zeros(6), xs[1:7]]),
        ])
    for step in (0.005, 0.02, 0.04):  # dense straight runs that must merge
        xs = np.arange(25) * step
        yield np.column_stack([xs, 1e-4 * np.sin(7.0 * xs)])


def degenerate_problems():
    """Polylines and obstacles that drive every kernel onto its masked path:
    repeated states (zero-length segments), a segment just under the
    curvature kernel's 1e-9 length floor, a stencil that doubles back (zero
    chord), a straight run at constant speed (zero velocity change) and
    states exactly at a predicted obstacle center."""
    rng = np.random.default_rng(15)
    for k in range(50):
        n = int(rng.integers(5, 20))
        p = np.cumsum(rng.normal(0.0, 0.3, (n, 2)), axis=0)
        dts = rng.uniform(0.05, 0.6, n - 1)
        i = int(rng.integers(1, n - 2))
        if k % 5 == 0:
            p[i + 1] = p[i]                     # a zero-length segment
        elif k % 5 == 1:
            p[i + 1] = p[i] + 5e-10             # shorter than 1e-9, not zero
        elif k % 5 == 2:
            p[i + 1] = p[i - 1]                 # the chord at state i is zero
        elif k % 5 == 3:
            p[i + 1] = 2.0 * p[i] - p[i - 1]    # no velocity change at state i
            dts[i] = dts[i - 1]
        else:
            p[i + 1] = p[i]
            p[i - 1] = p[i]
        obstacles = [
            ObstacleState(Vec2(*p[j]), safety_radius=0.4)  # static, so the center stays on p[j]
            for j in rng.integers(0, n, 2)
        ]
        obstacles.append(ObstacleState(Vec2(*p[0]), Vec2(0.1, -0.2), safety_radius=0.3,
                                       model=MotionModel.CONST_VELOCITY))
        yield p, dts, obstacles if k % 7 else [], ORACLE_WEIGHTS[k // 5 % len(ORACLE_WEIGHTS)]


def same_bits(a, b) -> bool:
    """Equal shapes and bytes: unlike ==, tells -0.0 from +0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_optimizes_like_reference(seed, obstacles, sc):
    traj, report = optimize_candidate(seed, obstacles, sc.weights, sc.limits, sc.density)
    want_p, want_dt, want_report = ref_optimize_candidate(
        seed, obstacles, sc.weights, sc.limits, sc.density
    )
    assert same_bits(traj.positions(), want_p)
    assert same_bits(traj.durations(), want_dt)
    assert same_bits(report.final_cost, want_report.final_cost)
    assert report == want_report


class TestAgainstPreviousKernels:
    def test_evaluate_and_gradient_bitwise(self):
        for p, dts, obstacles, w in oracle_problems(11, 200):
            ref_obs = RefObstacleArrays(obstacles)
            want = ref_cost_arrays(p, dts, ref_obs, w, LIMITS, CLEARANCE_BUFFER)
            want_grad = ref_cost_grad_arrays(p, dts, ref_obs, w, LIMITS, CLEARANCE_BUFFER)
            ev = _evaluate(p, dts, _ObstacleArrays(obstacles), w, LIMITS, CLEARANCE_BUFFER)
            assert ev.cost == want == want_grad[0]
            grad_p, grad_dt = _gradient(ev)
            assert np.array_equal(grad_p, want_grad[1])
            assert np.array_equal(grad_dt, want_grad[2])

    def test_masked_paths_bitwise(self):
        for p, dts, obstacles, w in degenerate_problems():
            want = ref_cost_grad_arrays(p, dts, RefObstacleArrays(obstacles), w, LIMITS, CLEARANCE_BUFFER)
            ev = _evaluate(p, dts, _ObstacleArrays(obstacles), w, LIMITS, CLEARANCE_BUFFER)
            assert same_bits(ev.cost, want[0])
            grad_p, grad_dt = _gradient(ev)
            assert same_bits(grad_p, want[1])
            assert same_bits(grad_dt, want[2])

    def test_bounded_evaluation_rejects_exactly(self):
        for p, dts, obstacles, w in oracle_problems(12, 200):
            obs, ref_obs = _ObstacleArrays(obstacles), RefObstacleArrays(obstacles)
            full = ref_cost_arrays(p, dts, ref_obs, w, LIMITS, CLEARANCE_BUFFER)
            bounds = [full, np.nextafter(full, math.inf), np.nextafter(full, -math.inf)]
            # every ordered sub-sum of the five terms, by zeroing the others
            terms = (w.w_time, w.w_obstacle, w.w_smooth, w.w_vel, w.w_acc)
            for keep in itertools.product((0.0, 1.0), repeat=5):
                kept = [x * k for x, k in zip(terms, keep)]
                if any(kept):
                    part = ref_cost_arrays(p, dts, ref_obs, CostWeights(*kept), LIMITS, CLEARANCE_BUFFER)
                    bounds += [part, np.nextafter(part, math.inf)]
            for bound in bounds:
                ev = _evaluate(p, dts, obs, w, LIMITS, CLEARANCE_BUFFER, bound=float(bound))
                assert (ev is None) == (not full < bound)
                if ev is not None:
                    assert ev.cost == full

    def test_adapt_arrays_bitwise(self):
        rng = np.random.default_rng(13)
        grew = shrank = 0
        for params in ORACLE_DENSITIES:
            for p in oracle_polylines(14, params):
                dts = rng.uniform(0.01, 0.6, len(p) - 1)
                want_p, want_dt = ref_adapt_arrays(p.copy(), dts.copy(), params)
                got_p, got_dt = _adapt_arrays(p.copy(), dts.copy(), params)
                assert np.array_equal(got_p, want_p)
                assert np.array_equal(got_dt, want_dt)
                grew += len(want_p) > len(p)
                shrank += len(want_p) < len(p)
        assert grew > 50 and shrank > 50

    @pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3"])
    def test_optimize_candidate_bitwise_on_bundled_seeds(self, name, scenario_paths):
        sc = parse_scenario(str(scenario_paths[name]))
        seeds = enumerate_seed_paths(
            sc.start, sc.goal, sc.obstacles, sc.max_classes, sc.margin,
            conflict_speed=sc.limits.v_max,
        )
        assert seeds
        for seed in seeds:
            traj, report = optimize_candidate(seed, sc.obstacles, sc.weights, sc.limits, sc.density)
            want_p, want_dt, want_report = ref_optimize_candidate(
                seed, sc.obstacles, sc.weights, sc.limits, sc.density
            )
            assert np.array_equal(traj.positions(), want_p)
            assert np.array_equal(traj.durations(), want_dt)
            assert report == want_report

    def test_optimize_candidate_bitwise_on_closed_loop_replans(self, scenario_paths):
        """Tracked constant-acceleration obstacles and starts away from the
        scenario start: the inputs of the first replans of a closed-loop run,
        rebuilt from its tick log."""
        sc = parse_scenario(str(scenario_paths["scenario3"]))
        ticks = simulate_run(sc, seed=0).ticks[:15]
        assert len(ticks) == 15
        for tick in ticks:
            obstacles = tuple(o for o in tick.obstacles_est if o is not None)
            seeds = enumerate_seed_paths(
                tick.vehicle, sc.goal, obstacles, sc.max_classes, sc.margin,
                conflict_speed=sc.limits.v_max,
            )
            for seed in seeds:
                assert_optimizes_like_reference(seed, obstacles, sc)
        assert any(o.model is MotionModel.CONST_ACCELERATION for o in obstacles)

    def test_optimize_candidate_bitwise_on_six_obstacle_corridor(self):
        sc = parse_scenario_dict(CORRIDOR_DOC)
        seeds = enumerate_seed_paths(
            sc.start, sc.goal, sc.obstacles, sc.max_classes, sc.margin,
            conflict_speed=sc.limits.v_max,
        )
        assert seeds
        for seed in seeds:
            assert_optimizes_like_reference(seed, sc.obstacles, sc)
