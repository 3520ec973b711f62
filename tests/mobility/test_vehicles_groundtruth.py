"""Tests for the drone, ground robot, and OptiTrack models."""

import numpy as np
import pytest

from repro.constants import RELAY_POWER_CONSUMPTION_W, RELAY_WEIGHT_GRAMS
from repro.errors import MobilityError, PayloadError
from repro.mobility import Drone, GroundRobot, LineTrajectory, OptiTrack


class TestDrone:
    def test_relay_payload_fits(self):
        drone = Drone()
        assert drone.payload_grams == RELAY_WEIGHT_GRAMS

    def test_reader_payload_rejected(self):
        """The paper's §3 argument: a 500+ g reader cannot fly indoors."""
        with pytest.raises(PayloadError):
            Drone(payload_grams=500.0)

    def test_battery_fraction_under_3_percent(self):
        """Paper §6.2: the relay draws <3% of the battery's current."""
        drone = Drone(payload_power_w=RELAY_POWER_CONSUMPTION_W)
        assert drone.payload_current_a / drone.battery_max_current_a < 0.03
        assert drone.payload_current_a == pytest.approx(5.8 / 12.0)

    def test_fly_samples_with_jitter(self):
        drone = Drone(hover_jitter_std_m=0.05)
        traj = LineTrajectory((0, 0), (5, 0))
        rng = np.random.default_rng(0)
        samples = drone.fly(traj, 0.1, rng)
        deviations = [abs(s.position[1]) for s in samples]
        assert 0.01 < np.std(deviations) < 0.2

    def test_fly_without_rng_is_exact(self):
        drone = Drone()
        traj = LineTrajectory((0, 0), (5, 0))
        samples = drone.fly(traj, 0.5, rng=None)
        assert all(s.position[1] == 0.0 for s in samples)

    def test_negative_jitter_rejected(self):
        with pytest.raises(MobilityError):
            Drone(hover_jitter_std_m=-0.01)


class TestGroundRobot:
    def test_drive_jitter_smaller_than_drone(self):
        robot = GroundRobot()
        assert robot.track_jitter_std_m < Drone().hover_jitter_std_m

    def test_drive_samples(self):
        robot = GroundRobot()
        traj = LineTrajectory((0, 0), (2.5, 0), speed_mps=robot.speed_mps)
        samples = robot.drive(traj, 0.1, np.random.default_rng(0))
        assert len(samples) == 26

    def test_invalid_speed(self):
        with pytest.raises(MobilityError):
            GroundRobot(speed_mps=0.0)


class TestOptiTrack:
    def test_observation_noise_statistics(self):
        tracker = OptiTrack(accuracy_std_m=0.005)
        rng = np.random.default_rng(1)
        observations = np.array(
            [tracker.observe((1.0, 2.0), rng) for _ in range(2000)]
        )
        assert np.mean(observations[:, 0]) == pytest.approx(1.0, abs=0.001)
        assert np.std(observations[:, 0]) == pytest.approx(0.005, rel=0.1)

    def test_out_of_view_raises(self):
        """The paper's §9 limitation: drones must stay in camera view."""
        tracker = OptiTrack(coverage_min=(0, 0), coverage_max=(10, 10))
        assert tracker.in_view((5, 5))
        assert not tracker.in_view((11, 5))
        with pytest.raises(MobilityError):
            tracker.observe((11.0, 5.0))

    def test_observe_trajectory(self):
        tracker = OptiTrack(accuracy_std_m=0.0)
        traj = LineTrajectory((0, 0), (1, 0))
        drone = Drone(hover_jitter_std_m=0.0)
        flown = drone.fly(traj, 0.25)
        observed = tracker.observe_trajectory(flown)
        for a, b in zip(flown, observed):
            np.testing.assert_allclose(a.position, b.position)
            assert a.time == b.time

    def test_invalid_coverage(self):
        with pytest.raises(MobilityError):
            OptiTrack(coverage_min=(5, 5), coverage_max=(0, 0))
