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
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import ObstacleState

# Swept checks sample at least this finely along space and time.
CHECK_STEP_M = 0.05
CHECK_STEP_S = 0.05


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
        sums over. A flat row of S times gives (2, M, S): with the long sample
        axis innermost, a sweep's broadcasts run about twice as fast.
        """
        if t.ndim == 2:
            pos, vel, acc = self.pos, self.vel, self.acc
        else:
            pos, vel, acc = self._motion.reshape(3, 2, self.count, 1)
        return pos + vel * t + acc * (0.5 * t * t)


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
    steps = np.maximum(
        np.maximum(np.ceil(lengths / CHECK_STEP_M), np.ceil(dt / CHECK_STEP_S)), 1.0
    ).astype(np.int64)
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
    are. Raises ValueError on a negative duration.
    """
    if (dt < 0.0).any():
        raise ValueError("segment durations must be >= 0")
    if not obstacles.count or not len(ax):
        return np.ones(len(ax), dtype=bool)
    px, py, t, starts = sweep_samples(ax, ay, dx, dy, lengths, t0, dt)
    # In place, c becomes the squared offsets: (c - p)² is exactly (p - c)².
    c = obstacles.centers(t)
    c[0] -= px
    c[1] -= py
    c *= c
    limit = (obstacles.radius + margin)[:, None]
    ok = (c[0] + c[1] > limit * limit).all(axis=0)
    return np.logical_and.reduceat(ok, starts)


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
