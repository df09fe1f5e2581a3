"""Timed-trajectory optimization for one homotopy-class candidate.

The decision variables are the interior waypoints and every segment duration
jointly, so arrival time is optimized alongside geometry. All constraints are
soft penalties, keeping the inner loop a plain monotone gradient descent with
backtracking line search. An outer schedule escalates the obstacle weight and
re-spaces the states so bends get denser sampling than straights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .geometry import KinodynamicLimits, ObstacleState, Trajectory, Vec2
from .homotopy import SeedPath, signatures_equivalent, winding_signature

# Extra clearance targeted beyond the safety radius. Kept comfortably above
# the planner's feasibility margin so near-converged candidates still pass the
# hard collision check, and so tracking drift in closed loop stays covered.
CLEARANCE_BUFFER = 0.1
DT_FLOOR = 0.01          # segment durations never drop below this, s
_EPS = 1e-12
_PERP = np.array([-1.0, 1.0])   # (x, y) reversed times this is perp(x)


class OptimizationError(RuntimeError):
    """Raised when a candidate's descent produces a non-finite cost."""


@dataclass(frozen=True)
class CostWeights:
    w_time: float = 1.0
    w_obstacle: float = 10.0
    w_smooth: float = 0.5
    w_vel: float = 200.0
    w_acc: float = 200.0

    def __post_init__(self) -> None:
        vals = (self.w_time, self.w_obstacle, self.w_smooth, self.w_vel, self.w_acc)
        if any(v < 0.0 for v in vals):
            raise ValueError("cost weights must be non-negative")
        if not any(v > 0.0 for v in vals):
            raise ValueError("at least one cost weight must be positive")


@dataclass(frozen=True)
class DensityParams:
    """Spacing bounds for trajectory states; bends get the tighter bound."""

    d_min: float = 0.05
    d_max: float = 0.3
    d_max_bend: float = 0.1
    kappa_thresh: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.d_min < self.d_max_bend <= self.d_max:
            raise ValueError("require 0 < d_min < d_max_bend <= d_max")


@dataclass(frozen=True)
class OptimizeReport:
    final_cost: float
    iterations: int
    converged: bool
    signature_preserved: bool


@dataclass(frozen=True)
class DensityReport:
    """States-per-meter aggregate plus per-region means (None when a region is empty)."""

    states_per_meter: float
    bend_mean: Optional[float]
    straight_mean: Optional[float]


DEFAULT_WEIGHTS = CostWeights()
DEFAULT_DENSITY = DensityParams()
DEFAULT_LIMITS = KinodynamicLimits()

WEIGHT_GROWTH = 2.0
WEIGHT_CAP_FACTOR = 16.0
OUTER_ROUNDS = 5
MAX_INNER_ITERS = 100
REL_TOL = 1e-4


class _ObstacleArrays:
    """Column layout of obstacle states for vectorized kernels."""

    __slots__ = ("pos", "vel", "acc", "radius", "count")

    def __init__(self, obstacles: Sequence[ObstacleState]) -> None:
        self.count = len(obstacles)
        if self.count:
            self.pos = np.array([(o.position.x, o.position.y) for o in obstacles])
            self.vel = np.array([(o.velocity.x, o.velocity.y) for o in obstacles])
            self.acc = np.array([(o.acceleration.x, o.acceleration.y) for o in obstacles])
            self.radius = np.array([o.safety_radius for o in obstacles])
        else:
            self.pos = self.vel = self.acc = np.zeros((0, 2))
            self.radius = np.zeros(0)


def _curvature_terms(p: np.ndarray):
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


def state_curvatures(p: np.ndarray) -> np.ndarray:
    """|Menger curvature| per state; endpoints are 0 by convention."""
    n = len(p)
    out = np.zeros(n)
    if n >= 3:
        out[1:-1] = np.abs(_curvature_terms(p)[7])
    return out


def _obstacle_geometry(p: np.ndarray, dts: np.ndarray, obs: _ObstacleArrays):
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


class _Evaluation(NamedTuple):
    """One cost evaluation: the total plus the intermediates its gradient reuses."""

    cost: float
    p: np.ndarray
    dts: np.ndarray
    obs: _ObstacleArrays
    weights: CostWeights
    seg: np.ndarray
    e: np.ndarray
    hv: np.ndarray
    accel: Optional[tuple]       # vel, dv, tau, nrm, ha; None below three states
    curvature: Optional[tuple]   # _curvature_terms(p); None without smoothing
    obstacle: Optional[tuple]    # t, dx, dy, dist, h; None without obstacles


def _evaluate(
    p: np.ndarray,
    dts: np.ndarray,
    obs: _ObstacleArrays,
    weights: CostWeights,
    limits: KinodynamicLimits,
    clearance: float,
    bound: float = math.inf,
) -> Optional[_Evaluation]:
    """Cost of (p, dts), or None ("rejected") once it is known to be >= ``bound``.

    The total is summed as time + obstacle + smooth + vel + acc. Every term
    is non-negative, and adding a non-negative float never lowers an IEEE
    sum, so the same ordered sum over any subset of the terms is a lower
    bound on the total. The terms are computed cheapest first (time and
    speed, then acceleration, then smoothness, then obstacles) and the
    evaluation stops as soon as the sub-sum so far reaches ``bound``; most
    rejected line-search trials stop after the first two terms. The total
    and every accept/reject decision are those of the full evaluation. A
    non-finite total is rejected too, so an accepted result always has a
    finite ``cost < bound``.
    """
    n = len(p)
    seg = p[1:] - p[:-1]
    e = np.hypot(seg[:, 0], seg[:, 1])
    hv = np.maximum(e / dts - limits.v_max, 0.0)
    time_term = weights.w_time * float(dts.sum())
    vel_term = weights.w_vel * float((hv * hv).sum())
    if time_term + vel_term >= bound:
        return None

    acc_term = smooth_term = obstacle_term = 0.0
    accel = curvature = obstacle = None
    if n >= 3:
        vel = seg / dts[:, None]
        dv = vel[1:] - vel[:-1]
        tau = 0.5 * (dts[:-1] + dts[1:])
        nrm = np.hypot(dv[:, 0], dv[:, 1])
        ha = np.maximum(nrm / tau - limits.a_max, 0.0)
        acc_term = weights.w_acc * float((ha * ha).sum())
        if time_term + vel_term + acc_term >= bound:
            return None
        accel = (vel, dv, tau, nrm, ha)

        if weights.w_smooth > 0.0:  # smoothness needs an interior point
            curvature = _curvature_terms(p)
            _, _, _, a, b, _, _, kappa, _ = curvature
            smooth_term = weights.w_smooth * float((kappa * kappa * 0.5 * (a + b)).sum())
            if time_term + smooth_term + vel_term + acc_term >= bound:
                return None

    if obs.count:
        t, dx, dy, dist = _obstacle_geometry(p, dts, obs)
        h = np.maximum(obs.radius[None, :] + clearance - dist, 0.0)
        obstacle_term = weights.w_obstacle * float((h * h).sum())
        obstacle = (t, dx, dy, dist, h)

    cost = time_term + obstacle_term + smooth_term + vel_term + acc_term
    if not (math.isfinite(cost) and cost < bound):
        return None
    return _Evaluation(cost, p, dts, obs, weights, seg, e, hv, accel, curvature, obstacle)


def _gradient(ev: _Evaluation) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of ``ev.cost`` wrt positions ((N,2), endpoints zero)
    and durations ((N-1,))."""
    p, dts, obs, weights = ev.p, ev.dts, ev.obs, ev.weights
    grad_p = np.zeros_like(p)
    grad_dt = np.full(len(dts), weights.w_time)

    if ev.obstacle is not None:
        t, dx, dy, dist, h = ev.obstacle
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

    if ev.curvature is not None:
        u, v, w, a, b, c, cross, kappa, valid = ev.curvature
        ell = 0.5 * (a + b)
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
        cross_dprev = v[:, ::-1] * _PERP    # perp(v)
        cross_dmid = w[:, ::-1] * -_PERP    # -perp(w)
        cross_dnext = u[:, ::-1] * _PERP    # perp(u)
        grad_p[:-2] += g_cross[:, None] * cross_dprev - g_a[:, None] * uh - g_c[:, None] * wh
        grad_p[1:-1] += g_cross[:, None] * cross_dmid + g_a[:, None] * uh - g_b[:, None] * vh
        grad_p[2:] += g_cross[:, None] * cross_dnext + g_b[:, None] * vh + g_c[:, None] * wh

    seg, e, hv = ev.seg, ev.e, ev.hv
    act_v = (hv > 0.0) & (e > _EPS)
    if act_v.any():
        coef = np.where(act_v, 2.0 * weights.w_vel * hv / (np.where(act_v, e, 1.0) * dts), 0.0)
        gseg = coef[:, None] * seg
        grad_p[1:] += gseg
        grad_p[:-1] -= gseg
        grad_dt += np.where(act_v, -2.0 * weights.w_vel * hv * e / (dts * dts), 0.0)

    if ev.accel is not None:
        vel, dv, tau, nrm, ha = ev.accel
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
    return grad_p, grad_dt


def _evaluate_or_raise(
    p: np.ndarray,
    dts: np.ndarray,
    obs: _ObstacleArrays,
    weights: CostWeights,
    limits: KinodynamicLimits,
    clearance: float,
    where: str,
) -> _Evaluation:
    ev = _evaluate(p, dts, obs, weights, limits, clearance)
    if ev is None:
        raise OptimizationError(f"non-finite cost {where}")
    return ev


def total_cost(
    traj: Trajectory,
    obstacles: Sequence[ObstacleState],
    weights: CostWeights = DEFAULT_WEIGHTS,
    limits: KinodynamicLimits = DEFAULT_LIMITS,
    clearance: float = CLEARANCE_BUFFER,
) -> float:
    """Scalar objective: travel time, obstacle proximity, bending, and limit violations.

    Raises ``OptimizationError`` when the objective is not finite.
    """
    return _evaluate_or_raise(
        traj.positions(), traj.durations(), _ObstacleArrays(obstacles), weights, limits,
        clearance, "in total_cost",
    ).cost


def cost_gradient(
    traj: Trajectory,
    obstacles: Sequence[ObstacleState],
    weights: CostWeights = DEFAULT_WEIGHTS,
    limits: KinodynamicLimits = DEFAULT_LIMITS,
    clearance: float = CLEARANCE_BUFFER,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient wrt interior positions ((N,2), endpoints zero) and durations ((N-1,)).

    Raises ``OptimizationError`` when the objective is not finite.
    """
    return _gradient(_evaluate_or_raise(
        traj.positions(), traj.durations(), _ObstacleArrays(obstacles), weights, limits,
        clearance, "in cost_gradient",
    ))


def dynamic_weights(
    base: CostWeights,
    outer_iter: int,
    growth: float = WEIGHT_GROWTH,
    cap_factor: float = WEIGHT_CAP_FACTOR,
) -> CostWeights:
    """Escalate the obstacle weight geometrically across outer rounds, capped."""
    if outer_iter < 0:
        raise ValueError("outer_iter must be >= 0")
    w_obs = min(base.w_obstacle * growth**outer_iter, cap_factor * base.w_obstacle)
    return replace(base, w_obstacle=w_obs)


def _split_segments(
    p: np.ndarray, dts: np.ndarray, params: DensityParams
) -> tuple[np.ndarray, np.ndarray, bool]:
    """One insertion pass: halve each over-long segment, then keep halving
    its tail half while that is still too long.

    Bend flags come from the polyline at the start of the pass; every new
    midpoint counts as straight, so a tail half is held to ``d_max_bend``
    only when the segment's far end is a bend.
    """
    bend = state_curvatures(p) > params.kappa_thresh
    end = p[1:]
    tail_limit = np.where(bend[1:], params.d_max_bend, params.d_max) + 1e-12
    limit = np.where(bend[:-1], params.d_max_bend + 1e-12, tail_limit)
    mids: list[np.ndarray] = []      # level k: the k-th midpoint of each splitting segment
    halves: list[np.ndarray] = []    # level k: that segment's duration after k+1 halvings
    owners: list[np.ndarray] = []    # level k: indices of the segments split k+1 times
    idx = np.arange(len(dts))
    tail, dur = p[:-1], dts
    while len(idx):
        d = end[idx] - tail
        split = np.hypot(d[:, 0], d[:, 1]) > limit
        if not split.any():
            break
        idx = idx[split]
        tail = 0.5 * (tail[split] + end[idx])
        dur = 0.5 * dur[split]
        limit = tail_limit[idx]
        mids.append(tail)
        halves.append(dur)
        owners.append(idx)
    if not mids:
        return p, dts, False
    counts = np.bincount(np.concatenate(owners), minlength=len(dts))
    # Segment i's states start at first[i]: its start point, then its midpoints.
    first = np.arange(len(dts)) + np.concatenate(([0], np.cumsum(counts)[:-1]))
    out_p = np.empty((len(p) + int(counts.sum()), 2))
    out_p[first] = p[:-1]
    out_p[-1] = p[-1]
    out_dt = np.empty(len(out_p) - 1)
    out_dt[first] = dts
    for k, (owner, mid, half) in enumerate(zip(owners, mids, halves)):
        out_p[first[owner] + k + 1] = mid
        # the head piece keeps this halving; the tail piece may be halved again
        out_dt[first[owner] + k] = half
        out_dt[first[owner] + k + 1] = half
    return out_p, out_dt, True


def _merge_one(
    p: np.ndarray, dts: np.ndarray, params: DensityParams
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Drop the first interior state, in scan order, that sits in an
    over-dense straight stretch and whose merged segment stays within its
    bound; None when no state qualifies."""
    if len(p) < 3:
        return None
    bend = state_curvatures(p) > params.kappa_thresh
    seg = p[1:] - p[:-1]
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    span = p[2:] - p[:-2]
    merged = np.hypot(span[:, 0], span[:, 1])
    limit = np.where(bend[:-2] | bend[2:], params.d_max_bend, params.d_max)
    ok = ~(
        (lengths[:-1] >= params.d_min)
        | (lengths[1:] >= params.d_min)
        | bend[1:-1]
        | (merged > limit)
    )
    if not ok.any():
        return None
    i = int(ok.argmax()) + 1
    out_dt = np.delete(dts, i)
    out_dt[i - 1] = dts[i - 1] + dts[i]
    return np.delete(p, i, axis=0), out_dt


def _adapt_arrays(
    p: np.ndarray, dts: np.ndarray, params: DensityParams
) -> tuple[np.ndarray, np.ndarray]:
    for _ in range(200):
        # Insertion: split any segment longer than its applicable bound.
        p, dts, changed = _split_segments(p, dts, params)
        # Removal: drop interior states in over-dense straight stretches,
        # one at a time, re-reading curvature after each.
        while (merged := _merge_one(p, dts, params)) is not None:
            p, dts = merged
            changed = True
        if not changed:
            break
    return p, dts


def adapt_density(traj: Trajectory, params: DensityParams = DEFAULT_DENSITY) -> Trajectory:
    """Re-space states: bends at most ``d_max_bend`` apart, straights at most ``d_max``.

    Midpoint insertions split durations evenly; removals merge them, so total
    time and shape are preserved. Endpoints are never touched.
    """
    p, dts = _adapt_arrays(traj.positions(), traj.durations(), params)
    return _to_trajectory(p, dts)


def trajectory_density(traj: Trajectory, params: DensityParams = DEFAULT_DENSITY) -> DensityReport:
    """States per meter, overall and split into bend/straight regions."""
    p = traj.positions()
    seg = np.diff(p, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    total = float(lengths.sum())
    if total <= 0.0:
        raise ValueError("trajectory has zero arc length")
    kappa = state_curvatures(p)
    bend_state = kappa > params.kappa_thresh
    bend_seg = bend_state[:-1] | bend_state[1:]

    def region_mean(mask: np.ndarray) -> Optional[float]:
        if not mask.any():
            return None
        return float(mask.sum() / lengths[mask].sum())

    return DensityReport(
        states_per_meter=len(p) / total,
        bend_mean=region_mean(bend_seg),
        straight_mean=region_mean(~bend_seg),
    )


def _to_trajectory(p: np.ndarray, dts: np.ndarray) -> Trajectory:
    points = [Vec2(float(x), float(y)) for x, y in p]
    return Trajectory.from_waypoints(points, [float(d) for d in dts])


def _seed_arrays(
    seed: SeedPath, spacing: float, v_ref: float
) -> tuple[np.ndarray, np.ndarray]:
    """Resample the seed polyline uniformly and time it at the reference speed."""
    pts = np.array([(w.x, w.y) for w in seed.waypoints])
    seg = np.diff(pts, axis=0)
    cum = np.concatenate(([0.0], np.cumsum(np.hypot(seg[:, 0], seg[:, 1]))))
    total = float(cum[-1])
    if total <= 0.0:
        raise ValueError("seed path has zero length")
    n_seg = max(1, int(math.ceil(total / spacing)))
    s = np.linspace(0.0, total, n_seg + 1)
    p = np.column_stack([np.interp(s, cum, pts[:, 0]), np.interp(s, cum, pts[:, 1])])
    dts = np.full(n_seg, (total / n_seg) / v_ref)
    return p, dts


def _descend(
    p: np.ndarray,
    dts: np.ndarray,
    obs: _ObstacleArrays,
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
    ev = _evaluate_or_raise(p, dts, obs, weights, limits, clearance, "at descent start")
    cost = ev.cost
    grad_p, grad_dt = _gradient(ev)
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
        for _ in range(16):
            p_try = p - (theta * alpha_p) * grad_p
            dt_try = np.maximum(dts - (theta * alpha_dt) * grad_dt, DT_FLOOR)
            trial = _evaluate(p_try, dt_try, obs, weights, limits, clearance, bound=cost)
            if trial is not None:
                break
            theta *= 0.5
        if trial is None:
            converged = True
            break
        c_try = trial.cost
        if on_accept is not None:
            on_accept(cost, c_try)
        rel = (cost - c_try) / max(abs(cost), _EPS)
        iters += 1
        if rel < rel_tol:
            p, dts, cost = p_try, dt_try, c_try
            converged = True
            break
        gp_new, gdt_new = _gradient(trial)
        alpha_p = bb_step(p_try - p, gp_new - grad_p, theta * alpha_p)
        alpha_dt = bb_step(dt_try - dts, gdt_new - grad_dt, theta * alpha_dt)
        p, dts, cost = p_try, dt_try, c_try
        grad_p, grad_dt = gp_new, gdt_new
    return p, dts, cost, iters, converged, (alpha_p, alpha_dt)


def optimize_candidate(
    seed: SeedPath,
    obstacles: Sequence[ObstacleState],
    weights: CostWeights = DEFAULT_WEIGHTS,
    limits: KinodynamicLimits = DEFAULT_LIMITS,
    density: DensityParams = DEFAULT_DENSITY,
    clearance: float = CLEARANCE_BUFFER,
    outer_rounds: int = OUTER_ROUNDS,
    max_inner: int = MAX_INNER_ITERS,
    rel_tol: float = REL_TOL,
    on_accept: Optional[Callable[[float, float], None]] = None,
) -> tuple[Trajectory, OptimizeReport]:
    """Optimize one seed path into a timed trajectory.

    Alternates escalating-weight descent rounds with density adaptation, then
    verifies the result stayed in the seed's homotopy class. The reported
    final cost uses the base weights so candidates are comparable.
    """
    p, dts = _seed_arrays(seed, density.d_max, 0.5 * limits.v_max)
    obs = _ObstacleArrays(obstacles)
    iterations = 0
    converged = False
    for outer in range(outer_rounds):
        # step scales reset each round: escalated weights and re-spaced
        # states change the curvature landscape under the descent
        w_round = dynamic_weights(weights, outer)
        p, dts, _, n_iters, converged, _ = _descend(
            p, dts, obs, w_round, limits, clearance, max_inner, rel_tol, on_accept
        )
        iterations += n_iters
        p, dts = _adapt_arrays(p, dts, density)

    final_cost = _evaluate_or_raise(p, dts, obs, weights, limits, clearance, "after descent").cost
    traj = _to_trajectory(p, dts)
    result_sig = winding_signature([s.position for s in traj.states], obstacles)
    preserved = signatures_equivalent(result_sig, seed.signature)
    report = OptimizeReport(
        final_cost=final_cost,
        iterations=iterations,
        converged=converged,
        signature_preserved=preserved,
    )
    return traj, report
