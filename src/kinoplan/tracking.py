"""Obstacle motion prediction and Kalman-filter estimation of obstacle dynamics.

A single 6-state constant-acceleration filter per obstacle, fed with noisy
position detections, covers all three motion regimes (static, constant
velocity, constant acceleration): the regime is decided afterwards by
thresholding the estimated velocity and acceleration magnitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .geometry import MotionModel, ObstacleState, Vec2

# Position is observed directly; velocity and acceleration are inferred.
_H = np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])


@dataclass(frozen=True)
class KalmanConfig:
    """Filter tuning. Defaults favor slow desk-scale obstacles.

    The jerk PSD is kept small because tracked obstacles are modeled as
    genuinely constant-acceleration; a loose value lets acceleration noise
    through, and long-horizon prediction amplifies it quadratically.
    """

    process_noise: float = 1e-4  # white-jerk PSD, m^2/s^5
    sigma_v0: float = 1.0        # velocity prior std, m/s
    sigma_a0: float = 0.5        # acceleration prior std, m/s^2
    sigma_z_min: float = 1e-3    # measurement-noise floor keeping R invertible, m
    v_eps: float = 0.05          # below this speed an obstacle counts as static, m/s
    a_eps: float = 0.005         # below this an obstacle counts as non-accelerating, m/s^2
    min_updates: int = 10        # updates required before classification


DEFAULT_KALMAN = KalmanConfig()


@dataclass(frozen=True, eq=False)
class KalmanTrack:
    """Estimated obstacle state [px, py, vx, vy, ax, ay] with covariance."""

    obstacle_id: int
    state: np.ndarray
    covariance: np.ndarray
    last_update: float
    updates: int = 0

    def position(self) -> Vec2:
        return Vec2(float(self.state[0]), float(self.state[1]))

    def velocity(self) -> Vec2:
        return Vec2(float(self.state[2]), float(self.state[3]))

    def acceleration(self) -> Vec2:
        return Vec2(float(self.state[4]), float(self.state[5]))


@dataclass(frozen=True)
class Detection:
    """Simulated position measurement of one obstacle."""

    obstacle_id: int
    position: Vec2
    timestamp: float
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")


def predict_position(obs: ObstacleState, t: float) -> Vec2:
    """Obstacle position ``t`` seconds ahead under its motion model."""
    if t < 0.0:
        raise ValueError(f"prediction is forward-only, got t={t}")
    p, v, a = obs.position, obs.velocity, obs.acceleration
    return Vec2(
        p.x + v.x * t + 0.5 * a.x * t * t,
        p.y + v.y * t + 0.5 * a.y * t * t,
    )


def obstacle_at(obs: ObstacleState, t: float) -> ObstacleState:
    """Obstacle state advanced ``t`` seconds (position and velocity)."""
    if t < 0.0:
        raise ValueError(f"prediction is forward-only, got t={t}")
    pos = predict_position(obs, t)
    vel = Vec2(
        obs.velocity.x + obs.acceleration.x * t,
        obs.velocity.y + obs.acceleration.y * t,
    )
    return replace(obs, position=pos, velocity=vel)


def _transition(dt: float) -> np.ndarray:
    f = np.eye(6)
    f[0, 2] = f[1, 3] = f[2, 4] = f[3, 5] = dt
    f[0, 4] = f[1, 5] = 0.5 * dt * dt
    return f


def _process_noise(dt: float, q: float) -> np.ndarray:
    # Continuous white-noise jerk, integrated over dt, per axis.
    d2, d3, d4, d5 = dt * dt, dt**3, dt**4, dt**5
    block = q * np.array(
        [
            [d5 / 20.0, d4 / 8.0, d3 / 6.0],
            [d4 / 8.0, d3 / 3.0, d2 / 2.0],
            [d3 / 6.0, d2 / 2.0, dt],
        ]
    )
    out = np.zeros((6, 6))
    for axis in (0, 1):
        idx = np.array([0, 2, 4]) + axis
        out[np.ix_(idx, idx)] = block
    return out


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def kf_init(det: Detection) -> KalmanTrack:
    """Start a track from a first detection, with the uninformative dynamics
    priors of ``DEFAULT_KALMAN``."""
    state = np.array([det.position.x, det.position.y, 0.0, 0.0, 0.0, 0.0])
    sp2 = det.noise_std**2
    sv2, sa2 = DEFAULT_KALMAN.sigma_v0**2, DEFAULT_KALMAN.sigma_a0**2
    cov = np.diag([sp2, sp2, sv2, sv2, sa2, sa2])
    return KalmanTrack(det.obstacle_id, state, cov, det.timestamp, updates=0)


def kf_predict(track: KalmanTrack, dt: float) -> KalmanTrack:
    """Advance the track ``dt`` seconds under the constant-acceleration model,
    with the process noise of ``DEFAULT_KALMAN``."""
    if dt <= 0.0:
        raise ValueError(f"kf_predict needs dt > 0, got {dt}")
    f = _transition(dt)
    state = f @ track.state
    cov = _symmetrize(f @ track.covariance @ f.T + _process_noise(dt, DEFAULT_KALMAN.process_noise))
    return replace(track, state=state, covariance=cov, last_update=track.last_update + dt)


def kf_update(track: KalmanTrack, det: Detection) -> KalmanTrack:
    """Fold a position detection into the track (Joseph-form update); the
    noise is floored at ``DEFAULT_KALMAN.sigma_z_min``."""
    if det.timestamp < track.last_update - 1e-9:
        raise ValueError(
            f"stale detection at t={det.timestamp} for track updated at t={track.last_update}"
        )
    sigma_z = max(det.noise_std, DEFAULT_KALMAN.sigma_z_min)
    r = np.diag([sigma_z**2, sigma_z**2])
    p = track.covariance
    s = _H @ p @ _H.T + r
    k = p @ _H.T @ np.linalg.inv(s)
    innovation = np.array([det.position.x, det.position.y]) - _H @ track.state
    state = track.state + k @ innovation
    ikh = np.eye(6) - k @ _H
    cov = _symmetrize(ikh @ p @ ikh.T + k @ r @ k.T)
    return replace(
        track, state=state, covariance=cov, last_update=det.timestamp, updates=track.updates + 1
    )


def classify_motion(track: KalmanTrack) -> Optional[MotionModel]:
    """Decide the motion regime from estimated speed/acceleration magnitudes,
    against the thresholds ``DEFAULT_KALMAN.v_eps`` and ``DEFAULT_KALMAN.a_eps``.

    Returns None while the track has fewer than ``DEFAULT_KALMAN.min_updates``
    measurement updates (not enough evidence to classify).
    """
    if track.updates < DEFAULT_KALMAN.min_updates:
        return None
    speed = math.hypot(float(track.state[2]), float(track.state[3]))
    accel = math.hypot(float(track.state[4]), float(track.state[5]))
    if speed < DEFAULT_KALMAN.v_eps and accel < DEFAULT_KALMAN.a_eps:
        return MotionModel.STATIC
    if accel < DEFAULT_KALMAN.a_eps:
        return MotionModel.CONST_VELOCITY
    return MotionModel.CONST_ACCELERATION


def track_to_obstacle(track: KalmanTrack, safety_radius: float) -> ObstacleState:
    """Convert a track classified by ``classify_motion`` into an obstacle
    state for planning.

    Fields ruled out by the classified model are zeroed so downstream
    prediction honors the model exactly.
    """
    model = classify_motion(track)
    if model is None:
        raise ValueError(f"track {track.obstacle_id} is unclassified ({track.updates} updates)")
    zero = Vec2(0.0, 0.0)
    vel = track.velocity() if model is not MotionModel.STATIC else zero
    acc = track.acceleration() if model is MotionModel.CONST_ACCELERATION else zero
    return ObstacleState(
        position=track.position(),
        velocity=vel,
        acceleration=acc,
        safety_radius=safety_radius,
        model=model,
    )
