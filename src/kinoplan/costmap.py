"""Local cost grid with safety-margin inflation, plus swept collision checks.

The grid stamps every obstacle at its predicted position for a given time:
lethal (cost 1) inside the safety radius, then an exponential skirt that
decays to ~0 at the inflation radius. Collision checks do not use the grid;
they sample segments against analytically predicted obstacle positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import ObstacleState, Vec2
from .tracking import predict_position

# Residual relative cost at the inflation radius; defines the decay rate.
INFLATION_FLOOR = 0.01
DEFAULT_INFLATION_FACTOR = 2.0

# Swept checks sample at least this finely along space and time.
CHECK_STEP_M = 0.05
CHECK_STEP_S = 0.05

# Grid defaults sized for desk-scale scenarios (a few meters across).
DEFAULT_RESOLUTION = 0.1
GRID_PADDING = 2.0


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned rectangle in world coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("bounds must be non-degenerate")

    def padded(self, pad: float) -> "Bounds":
        return Bounds(self.x_min - pad, self.y_min - pad, self.x_max + pad, self.y_max + pad)


@dataclass(frozen=True, eq=False)
class CostGrid:
    """Row-major scalar costs in [0, 1]; 1 is lethal. Origin is the lower-left corner."""

    origin: Vec2
    resolution: float
    width: int
    height: int
    cells: np.ndarray  # shape (height, width)


def inflation_cost(
    distance: np.ndarray | float,
    safety_radius: float,
    inflation_radius: float,
    floor: float = INFLATION_FLOOR,
) -> np.ndarray | float:
    """Scalar inflation profile: 1 inside the safety radius, exponential skirt outside.

    The decay rate is chosen so the cost equals ``floor`` exactly at the
    inflation radius; beyond it the cost is 0.
    """
    d = np.asarray(distance, dtype=float)
    band = inflation_radius - safety_radius
    if band <= 0.0:
        out = np.where(d <= safety_radius, 1.0, 0.0)
    else:
        decay = math.log(1.0 / floor) / band
        skirt = np.exp(-decay * (d - safety_radius))
        out = np.where(d <= safety_radius, 1.0, np.where(d <= inflation_radius, skirt, 0.0))
    return float(out) if np.isscalar(distance) else out


def build_costmap(
    obstacles: Sequence[ObstacleState],
    t: float,
    bounds: Bounds,
    resolution: float,
    inflation_factor: float = DEFAULT_INFLATION_FACTOR,
) -> CostGrid:
    """Rasterize obstacle costs at their predicted positions for time ``t``.

    Costs from different obstacles combine by max; obstacles outside the
    bounds simply contribute their clipped skirt.
    """
    if resolution <= 0.0:
        raise ValueError("resolution must be > 0")
    width = max(1, int(math.ceil((bounds.x_max - bounds.x_min) / resolution)))
    height = max(1, int(math.ceil((bounds.y_max - bounds.y_min) / resolution)))
    xs = bounds.x_min + (np.arange(width) + 0.5) * resolution
    ys = bounds.y_min + (np.arange(height) + 0.5) * resolution
    gx, gy = np.meshgrid(xs, ys)
    cells = np.zeros((height, width))
    for obs in obstacles:
        c = predict_position(obs, t)
        d = np.hypot(gx - c.x, gy - c.y)
        cost = inflation_cost(d, obs.safety_radius, inflation_factor * obs.safety_radius)
        np.maximum(cells, cost, out=cells)
    return CostGrid(Vec2(bounds.x_min, bounds.y_min), resolution, width, height, cells)


def world_bounds(
    obstacles: Sequence[ObstacleState],
    start: Vec2,
    goal: Vec2,
    padding: float = GRID_PADDING,
) -> Bounds:
    """Bounding box of everything in the scenario, padded for grid building."""
    xs = [start.x, goal.x] + [o.position.x for o in obstacles]
    ys = [start.y, goal.y] + [o.position.y for o in obstacles]
    return Bounds(
        min(xs) - padding, min(ys) - padding, max(xs) + padding, max(ys) + padding
    )


def query_cost(grid: CostGrid, p: Vec2) -> float:
    """Bilinear interpolation between cell centers; 0 outside the grid."""
    x = p.x - grid.origin.x
    y = p.y - grid.origin.y
    if x < 0.0 or y < 0.0 or x > grid.width * grid.resolution or y > grid.height * grid.resolution:
        return 0.0
    # Continuous coordinates in cell-center space, clamped so the outer
    # half-cell ring extends edge values.
    cx = min(max(x / grid.resolution - 0.5, 0.0), grid.width - 1.0)
    cy = min(max(y / grid.resolution - 0.5, 0.0), grid.height - 1.0)
    i0, j0 = int(cx), int(cy)
    i1, j1 = min(i0 + 1, grid.width - 1), min(j0 + 1, grid.height - 1)
    fx, fy = cx - i0, cy - j0
    c = grid.cells
    top = c[j0, i0] * (1 - fx) + c[j0, i1] * fx
    bot = c[j1, i0] * (1 - fx) + c[j1, i1] * fx
    return float(top * (1 - fy) + bot * fy)


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
    and is ``lengths`` long. It gets the samples ``segment_is_free`` takes
    (``np.linspace`` spelled out). Returns x, y, t and each segment's first
    sample index, ready for ``np.logical_and.reduceat``.
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


def segment_is_free(
    obstacles: Sequence[ObstacleState],
    a: Vec2,
    b: Vec2,
    t_a: float,
    t_b: float,
    margin: float,
) -> bool:
    """Check a straight move from ``a`` (at ``t_a``) to ``b`` (at ``t_b``).

    Samples positions along the segment at linearly interpolated times and
    requires every sample to clear every obstacle's predicted position by
    more than safety_radius + margin.
    """
    if t_b < t_a:
        raise ValueError("t_b must be >= t_a")
    if not obstacles:
        return True
    length = a.distance_to(b)
    steps = max(
        int(math.ceil(length / CHECK_STEP_M)),
        int(math.ceil((t_b - t_a) / CHECK_STEP_S)),
        1,
    )
    s = np.linspace(0.0, 1.0, steps + 1)
    px = a.x + (b.x - a.x) * s
    py = a.y + (b.y - a.y) * s
    times = t_a + (t_b - t_a) * s
    for obs in obstacles:
        t2 = times * times
        cx = obs.position.x + obs.velocity.x * times + 0.5 * obs.acceleration.x * t2
        cy = obs.position.y + obs.velocity.y * times + 0.5 * obs.acceleration.y * t2
        d = np.hypot(px - cx, py - cy)
        if not np.all(d > obs.safety_radius + margin):
            return False
    return True


def to_pgm(grid: CostGrid) -> bytes:
    """Binary PGM dump of the grid (top row first), for eyeballing."""
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    data = np.flipud(np.rint(grid.cells * 255.0).astype(np.uint8))
    return header + data.tobytes()


def write_pgm(grid: CostGrid, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(to_pgm(grid))
