"""Planar geometric primitives and timed-trajectory domain types.

Everything here is immutable and pure, and pickles by value, so instances
can be shared freely, also with the planner's worker processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, TWO_PI)
    if wrapped <= 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


@dataclass(frozen=True, slots=True)
class Vec2:
    """Point or displacement in the plane, in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


class MotionModel(str, Enum):
    STATIC = "static"
    CONST_VELOCITY = "constant_velocity"
    CONST_ACCELERATION = "constant_acceleration"


@dataclass(frozen=True, slots=True)
class ObstacleState:
    """Point obstacle with a circular safety margin and a motion hypothesis."""

    position: Vec2
    velocity: Vec2 = Vec2(0.0, 0.0)
    acceleration: Vec2 = Vec2(0.0, 0.0)
    safety_radius: float = 0.5
    model: MotionModel = MotionModel.STATIC

    def __post_init__(self) -> None:
        if not self.safety_radius > 0.0:
            raise ValueError(f"safety_radius must be > 0, got {self.safety_radius}")
        if self.model is MotionModel.STATIC and (
            self.velocity.norm() != 0.0 or self.acceleration.norm() != 0.0
        ):
            raise ValueError("static obstacle must have zero velocity and acceleration")
        if self.model is MotionModel.CONST_VELOCITY and self.acceleration.norm() != 0.0:
            raise ValueError("constant-velocity obstacle must have zero acceleration")


@dataclass(frozen=True, slots=True)
class KinodynamicLimits:
    """Speed and acceleration envelope for the planned vehicle."""

    v_max: float = 0.5
    a_max: float = 0.5

    def __post_init__(self) -> None:
        if not (self.v_max > 0.0 and self.a_max > 0.0):
            raise ValueError("kinodynamic limits must be strictly positive")


@dataclass(frozen=True, slots=True)
class TimedState:
    """One trajectory sample: pose plus the time interval to its successor.

    ``dt`` is strictly positive except on a trajectory's terminal state,
    where it is exactly zero.
    """

    position: Vec2
    heading: float
    dt: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.heading):
            raise ValueError("heading must be finite")
        if not (math.isfinite(self.dt) and self.dt >= 0.0):
            raise ValueError(f"dt must be finite and >= 0, got {self.dt}")


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Ordered timed states from start to goal; the planner's output unit."""

    states: tuple[TimedState, ...]

    def __post_init__(self) -> None:
        if len(self.states) < 2:
            raise ValueError("a trajectory needs at least two states")
        for i, s in enumerate(self.states[:-1]):
            if not s.dt > 0.0:
                raise ValueError(f"non-terminal state {i} must have dt > 0, got {s.dt}")
        if self.states[-1].dt != 0.0:
            raise ValueError("terminal state must have dt == 0")

    @classmethod
    def from_waypoints(cls, points: Sequence[Vec2], dts: Sequence[float]) -> "Trajectory":
        """Build a trajectory from positions and per-segment durations.

        Headings are derived from the outgoing segment of each state; the
        terminal state copies its predecessor's heading.
        """
        if len(points) < 2:
            raise ValueError("need at least two waypoints")
        if len(dts) != len(points) - 1:
            raise ValueError(f"expected {len(points) - 1} durations, got {len(dts)}")
        headings: list[float] = []
        prev = 0.0
        for a, b in zip(points[:-1], points[1:]):
            d = b - a
            if d.norm() > 0.0:
                prev = normalize_angle(math.atan2(d.y, d.x))
            headings.append(prev)
        headings.append(headings[-1])
        states = tuple(
            TimedState(p, h, dt)
            for p, h, dt in zip(points, headings, tuple(dts) + (0.0,))
        )
        return cls(states)

    @property
    def start(self) -> Vec2:
        return self.states[0].position

    @property
    def goal(self) -> Vec2:
        return self.states[-1].position

    @property
    def total_time(self) -> float:
        return sum(s.dt for s in self.states)

    def positions(self) -> np.ndarray:
        """Positions as an (N, 2) float array."""
        return np.array([(s.position.x, s.position.y) for s in self.states], dtype=float)

    def durations(self) -> np.ndarray:
        """Per-segment durations as an (N-1,) float array."""
        return np.array([s.dt for s in self.states[:-1]], dtype=float)


def arc_length(traj: Trajectory) -> float:
    """Total Euclidean length of the trajectory polyline."""
    pts = traj.positions()
    seg = np.diff(pts, axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())
