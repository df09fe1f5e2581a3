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

from .collision import _ObstacleArrays
from .geometry import KinodynamicLimits, ObstacleState, Trajectory, Vec2
from .homotopy import SeedPath, _windings, signatures_equivalent

# Extra clearance targeted beyond the safety radius. Kept comfortably above
# the planner's feasibility margin so near-converged candidates still pass the
# hard collision check, and so tracking drift in closed loop stays covered.
CLEARANCE_BUFFER = 0.1
DT_FLOOR = 0.01          # segment durations never drop below this, s
_EPS = 1e-12
_PERP = np.array([-1.0, 1.0])   # (x, y) reversed times this is perp(x)
_NEG_PERP = -_PERP
# The reductions behind ndarray.sum/.min/.max and np.cumsum, called directly:
# same results, without the Python-level wrappers around them.
_sum = np.add.reduce
_min = np.minimum.reduce
_max = np.maximum.reduce
_cumsum = np.add.accumulate


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


def _curvature(p: np.ndarray, seg: np.ndarray, e: np.ndarray):
    """Menger curvature pieces for the interior states of an (N,2) polyline.

    ``seg`` and ``e`` are its segment vectors and lengths: the stencil at
    state i has sides u = seg[i-1], v = seg[i] of lengths a = e[i-1],
    b = e[i], and the chord w = p[i+1] - p[i-1] of length c. Returns
    (w, c, abc, kappa, valid), where ``abc`` is a*b*c (1 at a degenerate
    stencil), and ``valid`` marks the stencils whose three lengths all exceed
    1e-9, or is None when every stencil does.
    """
    w = p[2:] - p[:-2]
    c = np.hypot(w[:, 0], w[:, 1])
    cross = seg[:-1, 0] * seg[1:, 1] - seg[:-1, 1] * seg[1:, 0]
    abc = e[:-1] * e[1:] * c
    if _min(e) > 1e-9 and _min(c) > 1e-9:
        return w, c, abc, 2.0 * cross / abc, None
    valid = (e[:-1] > 1e-9) & (e[1:] > 1e-9) & (c > 1e-9)
    abc = np.where(valid, abc, 1.0)
    return w, c, abc, np.where(valid, 2.0 * cross / abc, 0.0), valid


def _state_curvatures(p: np.ndarray, seg: np.ndarray, e: np.ndarray) -> np.ndarray:
    out = np.zeros(len(p))
    if len(p) >= 3:
        out[1:-1] = np.abs(_curvature(p, seg, e)[3])
    return out


def state_curvatures(p: np.ndarray) -> np.ndarray:
    """|Menger curvature| per state; endpoints are 0 by convention."""
    seg = p[1:] - p[:-1]
    return _state_curvatures(p, seg, np.hypot(seg[:, 0], seg[:, 1]))


def _active(h: np.ndarray, length: np.ndarray):
    """Hinge values and lengths with the inactive entries masked out.

    An entry is active when its hinge ``h`` (>= 0) is positive and its length
    exceeds _EPS. Inactive entries come back as hinge 0 and length 1, so a
    gradient factor ``k * h / length`` is +0 there. When every length exceeds
    _EPS, the inactive entries are exactly those with h == 0, whose factor is
    already +0, so the arrays come back unmasked. None when nothing is active.
    """
    if _min(length, None) > _EPS:
        return (h, length) if _max(h, None) > 0.0 else None
    active = (h > 0.0) & (length > _EPS)
    if not active.any():
        return None
    return np.where(active, h, 0.0), np.where(active, length, 1.0)


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
    curvature: Optional[tuple]   # _curvature(p, seg, e) + (a + b,); None without smoothing
    obstacle: Optional[tuple]    # t, d (2,N,M), dist, h; None without obstacles


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
    time_term = weights.w_time * float(_sum(dts))
    vel_term = weights.w_vel * float(_sum(hv * hv))
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
        acc_term = weights.w_acc * float(_sum(ha * ha))
        if time_term + vel_term + acc_term >= bound:
            return None
        accel = (vel, dv, tau, nrm, ha)

        if weights.w_smooth > 0.0:  # smoothness needs an interior point
            ab = e[:-1] + e[1:]
            curvature = _curvature(p, seg, e) + (ab,)
            kappa = curvature[3]
            smooth_term = weights.w_smooth * float(_sum(kappa * kappa * 0.5 * ab))
            if time_term + smooth_term + vel_term + acc_term >= bound:
                return None

    if obs.count:
        t = np.empty(n)
        t[0] = 0.0
        _cumsum(dts, out=t[1:])
        tc = t[:, None]
        # x and y planes of the state-minus-predicted-center displacements
        d = p.T[:, :, None] - obs.centers(tc)
        sq = d * d
        dist = np.sqrt(sq[0] + sq[1])
        h = np.maximum(obs.radius + clearance - dist, 0.0)
        obstacle_term = weights.w_obstacle * float(_sum(h * h, None))
        obstacle = (t, d, dist, h)

    cost = time_term + obstacle_term + smooth_term + vel_term + acc_term
    if not (math.isfinite(cost) and cost < bound):
        return None
    return _Evaluation(cost, p, dts, obs, weights, seg, e, hv, accel, curvature, obstacle)


def _gradient(ev: _Evaluation) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of ``ev.cost`` wrt positions ((N,2), endpoints zero)
    and durations ((N-1,))."""
    p, dts, obs, weights = ev.p, ev.dts, ev.obs, ev.weights
    grad_p = np.zeros(p.shape)
    grad_dt = np.full(len(dts), weights.w_time)

    if ev.obstacle is not None:
        t, d, dist, h = ev.obstacle
        active = _active(h, dist)
        if active is not None:
            h, dist_safe = active
            coef = 2.0 * weights.w_obstacle * h / dist_safe
            grad_p -= _sum(coef * d, 2).T
            # Times enter through the predicted centers; each dt moves every
            # later state's sampling time.
            cdot = d * (obs.vel + obs.acc * t[:, None])
            s_i = _sum(coef * (cdot[0] + cdot[1]), 1)
            grad_dt += _cumsum(s_i[::-1])[-2::-1]

    seg, e = ev.seg, ev.e
    if ev.curvature is not None:
        w, c, abc, kappa, valid, ab = ev.curvature
        ell = 0.5 * ab
        if valid is None:
            sa, sb, sc = e[:-1], e[1:], c
            dk = 2.0 * weights.w_smooth * kappa * ell  # dJ/dkappa
            dl = weights.w_smooth * kappa * kappa      # dJ/dell
            unit = seg / e[:, None]
            uh, vh = unit[:-1], unit[1:]
        else:
            sa = np.where(valid, e[:-1], 1.0)
            sb = np.where(valid, e[1:], 1.0)
            sc = np.where(valid, c, 1.0)
            dk = np.where(valid, 2.0 * weights.w_smooth * kappa * ell, 0.0)
            dl = np.where(valid, weights.w_smooth * kappa * kappa, 0.0)
            uh = seg[:-1] / sa[:, None]
            vh = seg[1:] / sb[:, None]
        # kappa = 2*cross/(a*b*c), so dJ/da = -dk*kappa/a + dl/2, likewise
        # for b, and dJ/dc = -dk*kappa/c. IEEE negation is exact, so each
        # "x + (-y)" below is written "x - y" with the same result.
        q = dk * kappa
        half_dl = 0.5 * dl
        g_cross = (dk * 2.0 / abc)[:, None]
        g_a = (half_dl - q / sa)[:, None] * uh
        g_b = (half_dl - q / sb)[:, None] * vh
        g_c = (q / sc)[:, None] * (w / sc[:, None])  # -dJ/dc along w
        # perp(x) = (-x_y, x_x); d(cross)/dp for the three stencil points is
        # perp(v), -perp(w) and perp(u), with u = seg[:-1] and v = seg[1:]
        perp = seg[:, ::-1] * _PERP
        grad_p[:-2] += g_cross * perp[1:] - g_a + g_c
        grad_p[1:-1] += g_cross * (w[:, ::-1] * _NEG_PERP) + g_a - g_b
        grad_p[2:] += g_cross * perp[:-1] + g_b - g_c

    active = _active(ev.hv, e)
    if active is not None:
        hv, e_safe = active
        g = 2.0 * weights.w_vel * hv
        gseg = (g / (e_safe * dts))[:, None] * seg
        grad_p[1:] += gseg
        grad_p[:-1] -= gseg
        grad_dt -= g * e_safe / (dts * dts)

    if ev.accel is not None:
        vel, dv, tau, nrm, ha = ev.accel
        active = _active(ha, nrm)
        if active is not None:
            ha, n_safe = active
            g = 2.0 * weights.w_acc * ha
            u_vec = (g / (n_safe * tau))[:, None] * dv  # dJ/d(dv)
            inv = 1.0 / dts
            inv0, inv1 = inv[:-1], inv[1:]
            grad_p[:-2] += u_vec * inv0[:, None]
            grad_p[1:-1] -= u_vec * (inv0 + inv1)[:, None]
            grad_p[2:] += u_vec * inv1[:, None]
            dtau = -0.5 * g * nrm / (tau * tau)
            # dJ/d(dv) . dv/d(dt): row-wise dot products of u_vec and vel
            uv = u_vec * vel[:-1]
            grad_dt[:-1] += (uv[:, 0] + uv[:, 1]) * inv0 + dtau
            uv = u_vec * vel[1:]
            grad_dt[1:] += dtau - (uv[:, 0] + uv[:, 1]) * inv1

    grad_p[0] = 0.0
    grad_p[-1] = 0.0
    return grad_p, grad_dt


def _evaluate_or_raise(
    p: np.ndarray,
    dts: np.ndarray,
    obs: _ObstacleArrays,
    weights: CostWeights,
    limits: KinodynamicLimits,
    where: str,
) -> _Evaluation:
    ev = _evaluate(p, dts, obs, weights, limits, CLEARANCE_BUFFER)
    if ev is None:
        raise OptimizationError(f"non-finite cost {where}")
    return ev


def total_cost(
    traj: Trajectory,
    obstacles: Sequence[ObstacleState],
    weights: CostWeights = DEFAULT_WEIGHTS,
    limits: KinodynamicLimits = DEFAULT_LIMITS,
) -> float:
    """Scalar objective: travel time, obstacle proximity, bending, and limit violations.

    The obstacle term penalizes states closer than ``CLEARANCE_BUFFER`` to a
    predicted safety circle. Raises ``OptimizationError`` when the objective
    is not finite.
    """
    return _evaluate_or_raise(
        traj.positions(), traj.durations(), _ObstacleArrays(obstacles), weights, limits,
        "in total_cost",
    ).cost


def cost_gradient(
    traj: Trajectory,
    obstacles: Sequence[ObstacleState],
    weights: CostWeights = DEFAULT_WEIGHTS,
    limits: KinodynamicLimits = DEFAULT_LIMITS,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of ``total_cost`` (clearance ``CLEARANCE_BUFFER``) wrt
    interior positions ((N,2), endpoints zero) and durations ((N-1,)).

    Raises ``OptimizationError`` when the objective is not finite.
    """
    return _gradient(_evaluate_or_raise(
        traj.positions(), traj.durations(), _ObstacleArrays(obstacles), weights, limits,
        "in cost_gradient",
    ))


def dynamic_weights(base: CostWeights, outer_iter: int) -> CostWeights:
    """Escalate the obstacle weight by ``WEIGHT_GROWTH`` per outer round,
    capped at ``WEIGHT_CAP_FACTOR`` times the base weight."""
    if outer_iter < 0:
        raise ValueError("outer_iter must be >= 0")
    w_obs = min(base.w_obstacle * WEIGHT_GROWTH**outer_iter, WEIGHT_CAP_FACTOR * base.w_obstacle)
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
    d = p[1:] - p[:-1]
    lengths = np.hypot(d[:, 0], d[:, 1])
    bend = _state_curvatures(p, d, lengths) > params.kappa_thresh
    end = p[1:]
    tail_limit = np.where(bend[1:], params.d_max_bend, params.d_max) + 1e-12
    limit = np.where(bend[:-1], params.d_max_bend + 1e-12, tail_limit)
    mids: list[np.ndarray] = []      # level k: the k-th midpoint of each splitting segment
    halves: list[np.ndarray] = []    # level k: that segment's duration after k+1 halvings
    owners: list[np.ndarray] = []    # level k: indices of the segments split k+1 times
    idx = np.arange(len(dts))
    tail, dur = p[:-1], dts
    while (split := lengths > limit).any():
        idx = idx[split]
        tail = 0.5 * (tail[split] + end[idx])
        dur = 0.5 * dur[split]
        limit = tail_limit[idx]
        mids.append(tail)
        halves.append(dur)
        owners.append(idx)
        d = end[idx] - tail
        lengths = np.hypot(d[:, 0], d[:, 1])
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
    seg = p[1:] - p[:-1]
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    bend = _state_curvatures(p, seg, lengths) > params.kappa_thresh
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
    kappa = _state_curvatures(p, seg, lengths)
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


def _bb_step(s: np.ndarray, y: np.ndarray, fallback: float) -> float:
    """Barzilai-Borwein step s.s / s.y, clamped; doubles ``fallback`` when the
    curvature along ``s`` is not positive."""
    sy = float(_sum(s * y, None))
    if sy > 1e-16:
        return min(max(float(_sum(s * s, None)) / sy, 1e-8), 1e3)
    return min(fallback * 2.0, 1e3)


def _descend(
    p: np.ndarray,
    dts: np.ndarray,
    obs: _ObstacleArrays,
    weights: CostWeights,
    limits: KinodynamicLimits,
    max_inner: int,
    rel_tol: float,
    on_accept: Optional[Callable[[float, float], None]],
) -> tuple[np.ndarray, np.ndarray, float, int, bool]:
    """Monotone gradient descent with per-block spectral (Barzilai-Borwein)
    step sizes for positions and durations, guarded by a halving line search
    that only ever accepts a strict cost decrease.

    The two blocks live on very different curvature scales (obstacle walls vs
    the linear time term), so a shared step size strangles whichever block is
    momentarily free to move. Both step scales start at 0.1.
    """
    ev = _evaluate_or_raise(p, dts, obs, weights, limits, "at descent start")
    cost = ev.cost
    grad_p, grad_dt = _gradient(ev)
    alpha_p = alpha_dt = 0.1
    iters = 0
    converged = False

    for _ in range(max_inner):
        theta = 1.0
        for _ in range(16):
            p_try = p - (theta * alpha_p) * grad_p
            dt_try = np.maximum(dts - (theta * alpha_dt) * grad_dt, DT_FLOOR)
            trial = _evaluate(p_try, dt_try, obs, weights, limits, CLEARANCE_BUFFER, bound=cost)
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
        alpha_p = _bb_step(p_try - p, gp_new - grad_p, theta * alpha_p)
        alpha_dt = _bb_step(dt_try - dts, gdt_new - grad_dt, theta * alpha_dt)
        p, dts, cost = p_try, dt_try, c_try
        grad_p, grad_dt = gp_new, gdt_new
    return p, dts, cost, iters, converged


def optimize_candidate(
    seed: SeedPath,
    obstacles: Sequence[ObstacleState],
    weights: CostWeights = DEFAULT_WEIGHTS,
    limits: KinodynamicLimits = DEFAULT_LIMITS,
    density: DensityParams = DEFAULT_DENSITY,
    max_inner: int = MAX_INNER_ITERS,
    rel_tol: float = REL_TOL,
    on_accept: Optional[Callable[[float, float], None]] = None,
) -> tuple[Trajectory, OptimizeReport]:
    """Optimize one seed path into a timed trajectory.

    Alternates ``OUTER_ROUNDS`` escalating-weight descent rounds with density
    adaptation, then verifies the result stayed in the seed's homotopy
    class. The cost is ``total_cost``'s, with clearance ``CLEARANCE_BUFFER``.
    The reported final cost uses the base weights so candidates are
    comparable.
    """
    p, dts, report = optimize_arrays(
        seed, obstacles, _ObstacleArrays(obstacles), weights, limits, density,
        max_inner, rel_tol, on_accept,
    )
    return _to_trajectory(p, dts), report


def optimize_arrays(
    seed: SeedPath,
    obstacles: Sequence[ObstacleState],
    obs: _ObstacleArrays,
    weights: CostWeights = DEFAULT_WEIGHTS,
    limits: KinodynamicLimits = DEFAULT_LIMITS,
    density: DensityParams = DEFAULT_DENSITY,
    max_inner: int = MAX_INNER_ITERS,
    rel_tol: float = REL_TOL,
    on_accept: Optional[Callable[[float, float], None]] = None,
) -> tuple[np.ndarray, np.ndarray, OptimizeReport]:
    """``optimize_candidate`` without building the ``Trajectory``: returns the
    (N, 2) positions and (N-1,) durations it would hold, and the report.
    ``obs`` is ``_ObstacleArrays(obstacles)``."""
    p, dts = _seed_arrays(seed, density.d_max, 0.5 * limits.v_max)
    iterations = 0
    converged = False
    for outer in range(OUTER_ROUNDS):
        # step scales reset each round: escalated weights and re-spaced
        # states change the curvature landscape under the descent
        w_round = dynamic_weights(weights, outer)
        p, dts, _, n_iters, converged = _descend(
            p, dts, obs, w_round, limits, max_inner, rel_tol, on_accept
        )
        iterations += n_iters
        p, dts = _adapt_arrays(p, dts, density)

    final_cost = _evaluate_or_raise(p, dts, obs, weights, limits, "after descent").cost
    preserved = signatures_equivalent(_windings(p.tolist(), obstacles), seed.signature)
    report = OptimizeReport(
        final_cost=final_cost,
        iterations=iterations,
        converged=converged,
        signature_preserved=preserved,
    )
    return p, dts, report
