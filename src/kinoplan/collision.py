"""The collision model: timed straight segments against predicted obstacle circles.

Every obstacle is a point that moves with constant acceleration, grown by its
safety radius. A timed segment is clear when each of its samples, taken at
least every ``CHECK_STEP_M`` along space and ``CHECK_STEP_S`` along time,
lies strictly farther than safety_radius + margin from every predicted
center. A segment's verdict depends on that segment alone, not on the others
checked in the same call, so callers may batch segments freely and keep
verdicts. Seed enumeration calls ``segments_clear`` once on its roadmap edges
at time 0, then on batches of the timed segments it has not yet decided; the
planner's feasibility check ``polyline_clear`` calls it on a whole
trajectory. Zero segments, or a polyline of one state, are clear.

A call whose segments all take no time (the roadmap edges) sees each
obstacle at one instant, so most of its (segment, obstacle) pairs are
decided without a sweep, in one of three ways:

- *clear by bound*: the center lies farther from the segment (its clamped
  projection) than safety_radius + margin plus a slack far above the
  sweep's rounding, so no sample can come near it;
- *blocked by probe*: the sample nearest that closest point, computed with
  the sweep's own operations, is not clear, so the sweep would reject on
  that same float;
- *sampled*: a segment with a pair left undecided goes through the sweep.

The verdicts are the sampled ones, not those of the exact distance: an edge
that grazes a circle between two samples stays clear, so seeds and plans do
not move.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import ObstacleState

# Swept checks sample at least this finely along space and time.
CHECK_STEP_M = 0.05
CHECK_STEP_S = 0.05
# Clear by bound needs this much room beyond the limit, plus a part per
# billion of the largest coordinate: far above the sweep's rounding.
_BOUND_SLACK_M = 1e-6
_BOUND_SLACK_REL = 1e-9


class _ObstacleArrays:
    """Obstacle states as (2, 1, M) x/y planes: one broadcast against the
    (N, 1) column of state times gives both coordinates of every predicted
    center at once."""

    __slots__ = ("pos", "vel", "acc", "radius", "count", "_motion")

    def __init__(self, obstacles: Sequence[ObstacleState]) -> None:
        self.count = len(obstacles)
        # One row per field, one column per obstacle.
        fields = np.array([
            (o.position.x, o.position.y, o.velocity.x, o.velocity.y,
             o.acceleration.x, o.acceleration.y, o.safety_radius)
            for o in obstacles
        ]).reshape(self.count, 7).T.copy()
        self._motion = fields[:6]
        self.pos, self.vel, self.acc = self._motion.reshape(3, 2, 1, self.count)
        self.radius = fields[6]

    def centers(self, t: np.ndarray) -> np.ndarray:
        """x and y planes of the predicted centers at times ``t``, the array
        form of ``tracking.predict_position``.

        An (N, 1) column of times gives (2, N, M), the layout the optimizer
        sums over; so does an (N, M) array, one time per state and obstacle. A flat row of S times gives (2, M, S): with the long sample
        axis innermost, a sweep's broadcasts run about twice as fast.
        """
        if t.ndim == 2:
            pos, vel, acc = self.pos, self.vel, self.acc
        else:
            pos, vel, acc = self._motion.reshape(3, 2, self.count, 1)
        return pos + vel * t + acc * (0.5 * t * t)


def _steps(lengths: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Sample intervals per segment, the ``steps`` of ``sweep_samples``."""
    return np.maximum(
        np.maximum(np.ceil(lengths / CHECK_STEP_M), np.ceil(dt / CHECK_STEP_S)), 1.0
    ).astype(np.int64)


def sweep_samples(
    ax: np.ndarray,
    ay: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    lengths: np.ndarray,
    t0: np.ndarray,
    dt: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Samples of many timed straight segments, concatenated segment by segment.

    Segment i starts at (ax, ay) at time t0, moves by (dx, dy) over ``dt``
    and is ``lengths`` long. It gets ``steps + 1`` evenly spaced samples,
    both ends included (``np.linspace`` spelled out), with ``steps`` the
    larger of its length over ``CHECK_STEP_M`` and its duration over
    ``CHECK_STEP_S``, rounded up, and at least 1. Returns x, y, t and each
    segment's first sample index, ready for ``np.logical_and.reduceat``.
    """
    steps = _steps(lengths, dt)
    counts = steps + 1
    ends = np.cumsum(counts)
    starts = ends - counts
    seg = np.repeat(np.arange(len(ax)), counts)
    s = (np.arange(ends[-1]) - starts[seg]) * (1.0 / steps)[seg]
    s[ends - 1] = 1.0
    return ax[seg] + dx[seg] * s, ay[seg] + dy[seg] * s, t0[seg] + dt[seg] * s, starts


def segments_clear(
    ax: np.ndarray,
    ay: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    lengths: np.ndarray,
    t0: np.ndarray,
    dt: np.ndarray,
    obstacles: _ObstacleArrays,
    margin: float,
) -> np.ndarray:
    """One bool per timed segment: does it stay clear of every obstacle?

    The segments are those of ``sweep_samples``. A sample at distance d from
    an obstacle's predicted center is clear when d² > (r + margin)², with r
    the obstacle's safety radius; a segment is clear when all its samples
    are. Segments that all take no time are mostly decided without the
    sweep, with the same verdicts (see the module docstring). Raises
    ValueError on a negative duration.
    """
    if (dt < 0.0).any():
        raise ValueError("segment durations must be >= 0")
    if not obstacles.count or not len(ax):
        return np.ones(len(ax), dtype=bool)
    limit = obstacles.radius + margin
    if dt.any():
        return _swept_clear(ax, ay, dx, dy, lengths, t0, dt, obstacles, limit)
    clear, undecided = _instant_clear(ax, ay, dx, dy, lengths, t0, dt, obstacles, limit)
    if undecided.any():
        rows = (v[undecided] for v in (ax, ay, dx, dy, lengths, t0, dt))
        clear[undecided] = _swept_clear(*rows, obstacles, limit)
    return clear


def _swept_clear(ax, ay, dx, dy, lengths, t0, dt, obstacles, limit) -> np.ndarray:
    """``segments_clear`` by sweeping every sample of every segment."""
    px, py, t, starts = sweep_samples(ax, ay, dx, dy, lengths, t0, dt)
    # In place, c becomes the squared offsets: (c - p)² is exactly (p - c)².
    c = obstacles.centers(t)
    c[0] -= px
    c[1] -= py
    c *= c
    limit = limit[:, None]
    ok = (c[0] + c[1] > limit * limit).all(axis=0)
    return np.logical_and.reduceat(ok, starts)


def _instant_clear(
    ax, ay, dx, dy, lengths, t0, dt, obstacles, limit
) -> tuple[np.ndarray, np.ndarray]:
    """Verdicts of segments that take no time, decided per (segment,
    obstacle) pair on (E, M) arrays without a sweep.

    Returns the verdicts and a mask of the segments left undecided, whose
    verdicts are not yet set. Every sample of such a segment is at time t0,
    so each pair's center is fixed.
    """
    ax, ay, dx, dy, t0, dt = (v[:, None] for v in (ax, ay, dx, dy, t0, dt))
    cx, cy = obstacles.centers(t0)
    ox, oy = cx - ax, cy - ay
    dd = dx * dx + dy * dy
    u = np.clip((ox * dx + oy * dy) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
    gx, gy = ox - u * dx, oy - u * dy
    scale = max(np.abs(v).max() for v in (ax, ay, ax + dx, ay + dy, cx, cy))
    reach = limit + (_BOUND_SLACK_M + _BOUND_SLACK_REL * scale)
    far = gx * gx + gy * gy > reach * reach
    # The probe: the sample nearest the closest point, as sweep_samples and
    # _swept_clear compute it.
    steps = _steps(lengths, dt[:, 0])[:, None]
    k = np.rint(u * steps)
    s = np.where(k == steps, 1.0, k * (1.0 / steps))
    c = obstacles.centers(t0 + dt * s)
    c[0] -= ax + dx * s
    c[1] -= ay + dy * s
    c *= c
    blocked = (~(c[0] + c[1] > limit * limit)).any(axis=1)
    clear = far.all(axis=1) & ~blocked
    return clear, ~(clear | blocked)


def polyline_clear(
    p: np.ndarray, dts: np.ndarray, obstacles: _ObstacleArrays, margin: float
) -> bool:
    """Is the timed polyline through the (N, 2) states ``p``, leaving p[0] at
    time 0 and spending ``dts[i]`` on segment i, clear of every obstacle?
    ``segments_clear`` over all its segments."""
    times = np.concatenate(([0.0], np.cumsum(dts)))
    seg = np.diff(p, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    clear = segments_clear(
        p[:-1, 0], p[:-1, 1], seg[:, 0], seg[:, 1], lengths, times[:-1], dts,
        obstacles, margin,
    )
    return bool(clear.all())
