"""Benchmark inputs: the bundled scenario files and seeded corridor scenes."""
from __future__ import annotations

import math
import random

BUNDLED = ("scenario1", "scenario2", "scenario3")

CORRIDOR_LENGTH_M = 14.0
CORRIDOR_OBSTACLES = 6
CORRIDOR_JITTER_M = 0.2
CORRIDOR_SPEED_MAX = 0.2        # m/s, initial obstacle speed
CORRIDOR_ACCEL_RANGE = (0.005, 0.02)  # m/s^2, like the bundled scenario3
CORRIDOR_MAX_CLASSES = 2
LAYOUT_SEED = 2406
MODELS = ("static", "constant_velocity", "constant_acceleration")


def _heading(rng: random.Random, magnitude: float) -> list[float]:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return [magnitude * math.cos(theta), magnitude * math.sin(theta)]


def corridor_scene(layout: random.Random, jitter: random.Random) -> dict:
    """One scenario dict: obstacles about 2 m apart along a 14 m start-goal line.

    ``layout`` draws each obstacle's motion model, speed and heading;
    ``jitter`` draws its offset from the evenly spaced slot.
    """
    half = 0.5 * CORRIDOR_LENGTH_M
    spacing = CORRIDOR_LENGTH_M / (CORRIDOR_OBSTACLES + 1)
    obstacles = []
    for k in range(CORRIDOR_OBSTACLES):
        x = -half + spacing * (k + 1) + jitter.uniform(-CORRIDOR_JITTER_M, CORRIDOR_JITTER_M)
        y = jitter.uniform(-CORRIDOR_JITTER_M, CORRIDOR_JITTER_M)
        model = layout.choice(MODELS)
        obs = {"position": [x, y], "model": model}
        if model != "static":
            obs["velocity"] = _heading(layout, layout.uniform(0.0, CORRIDOR_SPEED_MAX))
        if model == "constant_acceleration":
            obs["acceleration"] = _heading(layout, layout.uniform(*CORRIDOR_ACCEL_RANGE))
        obstacles.append(obs)
    return {
        "start": [-half, 0.0],
        "goal": [half, 0.0],
        "obstacles": obstacles,
        "max_classes": CORRIDOR_MAX_CLASSES,
    }


def corridor_scenes(seed: int, count: int) -> list[dict]:
    """``count`` corridor scenes; the same seed always gives the same scenes.

    The motion of each obstacle comes from ``LAYOUT_SEED`` and its position
    jitter from ``seed``. Per-scene plan time ranges over 50-2000 ms, so
    drawing the motion from ``seed`` as well made the median plan time of 48
    scenes differ by a third between seeds; fixed layouts keep every run's
    mix of hard and easy scenes alike.
    """
    layout = random.Random(LAYOUT_SEED)
    jitter = random.Random(seed)
    return [corridor_scene(layout, jitter) for _ in range(count)]
