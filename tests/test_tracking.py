import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinoplan.geometry import MotionModel, ObstacleState, Vec2
from kinoplan.tracking import (
    Detection,
    classify_motion,
    kf_init,
    kf_predict,
    kf_update,
    obstacle_at,
    predict_position,
    track_to_obstacle,
)

TABLE2_OBS0 = ObstacleState(
    Vec2(-2, 0), Vec2(0.2, 0.3), model=MotionModel.CONST_VELOCITY
)
TABLE3_OBS0 = ObstacleState(
    Vec2(-2, 0), Vec2(0.2, 0.3), Vec2(-0.01, -0.02), model=MotionModel.CONST_ACCELERATION
)


def run_filter(true_obs, seconds, dt=0.1, noise=0.0, seed=0):
    """Feed noiseless/noisy detections of a moving target into one track."""
    rng = np.random.default_rng(seed)
    track = None
    steps = int(round(seconds / dt))
    for k in range(steps + 1):
        t = k * dt
        p = obstacle_at(true_obs, t).position
        z = Vec2(p.x + rng.normal(0.0, 1.0) * noise, p.y + rng.normal(0.0, 1.0) * noise)
        det = Detection(0, z, t, noise)
        if track is None:
            track = kf_init(det)
        else:
            track = kf_update(kf_predict(track, dt), det)
    return track


class TestPredictPosition:
    def test_static(self):
        obs = ObstacleState(Vec2(0, 0))
        assert predict_position(obs, 5.0) == Vec2(0, 0)

    def test_constant_velocity_table_values(self):
        p = predict_position(TABLE2_OBS0, 10.0)
        assert (p.x, p.y) == pytest.approx((0.0, 3.0), abs=1e-12)

    def test_constant_acceleration_table_values(self):
        p = predict_position(TABLE3_OBS0, 10.0)
        assert (p.x, p.y) == pytest.approx((-0.5, 2.0), abs=1e-12)

    def test_forward_only(self):
        with pytest.raises(ValueError):
            predict_position(TABLE2_OBS0, -0.1)

    @given(
        t1=st.floats(min_value=0, max_value=20),
        t2=st.floats(min_value=0, max_value=20),
        vx=st.floats(min_value=-1, max_value=1),
        vy=st.floats(min_value=-1, max_value=1),
    )
    @settings(max_examples=80)
    def test_cv_semigroup(self, t1, t2, vx, vy):
        obs = ObstacleState(Vec2(1.0, -2.0), Vec2(vx, vy), model=MotionModel.CONST_VELOCITY)
        direct = predict_position(obs, t1 + t2)
        stepped = predict_position(obstacle_at(obs, t1), t2)
        assert stepped.x == pytest.approx(direct.x, abs=1e-12)
        assert stepped.y == pytest.approx(direct.y, abs=1e-12)


class TestKfInit:
    def test_position_from_detection(self):
        track = kf_init(Detection(7, Vec2(1, 2), 0.0, 0.01))
        assert track.state.tolist() == [1, 2, 0, 0, 0, 0]
        assert track.obstacle_id == 7

    def test_covariance_symmetric_psd(self):
        track = kf_init(Detection(0, Vec2(1, 2), 0.0, 0.01))
        cov = track.covariance
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= 0.0

    def test_deterministic(self):
        a = kf_init(Detection(0, Vec2(1, 2), 0.0, 0.01))
        b = kf_init(Detection(0, Vec2(1, 2), 0.0, 0.01))
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.covariance, b.covariance)


class TestKfPredict:
    def test_velocity_advance(self):
        track = kf_init(Detection(0, Vec2(0, 0), 0.0))
        track = type(track)(0, np.array([0.0, 0, 1, 0, 0, 0]), track.covariance, 0.0)
        out = kf_predict(track, 1.0)
        assert out.state[:2] == pytest.approx([1.0, 0.0])

    def test_acceleration_advance(self):
        track = kf_init(Detection(0, Vec2(0, 0), 0.0))
        track = type(track)(0, np.array([0.0, 0, 0, 0, 2, 0]), track.covariance, 0.0)
        out = kf_predict(track, 1.0)
        assert out.state[0] == pytest.approx(1.0)  # 0.5 * a * dt^2
        assert out.state[2] == pytest.approx(2.0)

    def test_covariance_trace_grows(self):
        track = kf_init(Detection(0, Vec2(0, 0), 0.0, 0.01))
        out = kf_predict(track, 0.5)
        assert np.trace(out.covariance) > np.trace(track.covariance)

    def test_rejects_non_positive_dt(self):
        track = kf_init(Detection(0, Vec2(0, 0), 0.0))
        with pytest.raises(ValueError):
            kf_predict(track, 0.0)


class TestKfUpdate:
    def test_zero_innovation_keeps_mean(self):
        track = run_filter(TABLE2_OBS0, 2.0)
        predicted = kf_predict(track, 0.1)
        z = Vec2(float(predicted.state[0]), float(predicted.state[1]))
        updated = kf_update(predicted, Detection(0, z, predicted.last_update, 0.0))
        assert updated.state == pytest.approx(predicted.state, abs=1e-12)

    def test_stale_detection_rejected(self):
        track = run_filter(TABLE2_OBS0, 1.0)
        with pytest.raises(ValueError):
            kf_update(track, Detection(0, Vec2(0, 0), track.last_update - 0.5, 0.0))

    def test_fixed_point_estimates_decay(self):
        # noiseless repeated looks at a fixed point: dynamics must vanish
        track = run_filter(ObstacleState(Vec2(1, 1)), 10.0)
        assert math.hypot(*track.state[2:4]) < 1e-4
        assert math.hypot(*track.state[4:6]) < 1e-4

    def test_cv_velocity_recovered(self):
        track = run_filter(TABLE2_OBS0, 5.0)  # 50 updates at 10 Hz
        assert abs(track.state[2] - 0.2) < 1e-3
        assert abs(track.state[3] - 0.3) < 1e-3

    @given(ops=st.lists(st.sampled_from(["predict", "update"]), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_covariance_stays_symmetric_psd(self, ops):
        rng = np.random.default_rng(1234)
        track = kf_init(Detection(0, Vec2(0, 0), 0.0, 0.05))
        t = 0.0
        for op in ops:
            if op == "predict":
                track = kf_predict(track, 0.1)
                t += 0.1
            else:
                t = max(t, track.last_update)
                z = Vec2(rng.normal(0, 0.2), rng.normal(0, 0.2))
                track = kf_update(track, Detection(0, z, t, 0.05))
            cov = track.covariance
            assert np.allclose(cov, cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(cov).min() >= -1e-9


class TestCaConvergence:
    def test_error_shrinks_and_converges(self):
        true = TABLE3_OBS0
        track = None
        errors = []
        dt = 0.1
        for k in range(201):
            t = k * dt
            p = obstacle_at(true, t).position
            det = Detection(0, p, t, 0.0)
            track = kf_init(det) if track is None else kf_update(kf_predict(track, dt), det)
            truth = obstacle_at(true, t)
            err = np.array(
                [
                    track.state[0] - truth.position.x,
                    track.state[1] - truth.position.y,
                    track.state[2] - truth.velocity.x,
                    track.state[3] - truth.velocity.y,
                    track.state[4] - true.acceleration.x,
                    track.state[5] - true.acceleration.y,
                ]
            )
            errors.append(float(np.linalg.norm(err)))
        # non-increasing after burn-in until the numerical floor; once the
        # error is < 1e-6 (three decades under target) float jitter dominates
        for a, b in zip(errors[20:-1], errors[21:]):
            assert b <= a + 1e-9 or max(a, b) < 1e-6
        assert errors[200] < 1e-3


class TestClassification:
    def test_static_tag(self):
        track = run_filter(ObstacleState(Vec2(1, 1)), 3.0)
        assert classify_motion(track) is MotionModel.STATIC

    def test_cv_tag(self):
        track = run_filter(TABLE2_OBS0, 5.0)
        assert classify_motion(track) is MotionModel.CONST_VELOCITY

    def test_ca_tag(self):
        true = ObstacleState(
            Vec2(2, 0), Vec2(-0.2, -0.3), Vec2(0.03, 0.01), model=MotionModel.CONST_ACCELERATION
        )
        track = run_filter(true, 20.0)
        assert classify_motion(track) is MotionModel.CONST_ACCELERATION

    def test_unclassified_below_min_updates(self):
        track = run_filter(ObstacleState(Vec2(1, 1)), 0.5)  # 5 updates
        assert classify_motion(track) is None

    def test_track_to_obstacle_zeroes_fields(self):
        static = run_filter(ObstacleState(Vec2(1, 1)), 3.0)
        obs = track_to_obstacle(static, 0.5)
        assert obs.model is MotionModel.STATIC
        assert obs.velocity == Vec2(0, 0)
        assert obs.acceleration == Vec2(0, 0)

        cv = run_filter(TABLE2_OBS0, 5.0)
        obs = track_to_obstacle(cv, 0.5)
        assert obs.model is MotionModel.CONST_VELOCITY
        assert obs.acceleration == Vec2(0, 0)
        assert obs.velocity.norm() > 0.1

    def test_track_to_obstacle_requires_classification(self):
        track = run_filter(ObstacleState(Vec2(1, 1)), 0.3)
        with pytest.raises(ValueError):
            track_to_obstacle(track, 0.5)

    def test_round_trip_recovers_velocity(self):
        track = run_filter(TABLE2_OBS0, 5.0)
        obs = track_to_obstacle(track, 0.5)
        assert obs.velocity.distance_to(TABLE2_OBS0.velocity) < 1e-2
