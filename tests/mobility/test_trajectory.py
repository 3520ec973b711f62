"""Tests for trajectory generation and sampling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MobilityError
from repro.mobility import LineTrajectory
from repro.mobility.trajectory import Trajectory


class TestLine:
    def test_length_and_duration(self):
        traj = LineTrajectory((0, 0), (3, 4), speed_mps=0.5)
        assert traj.length == pytest.approx(5.0)
        assert traj.duration == pytest.approx(10.0)

    def test_position_interpolation(self):
        traj = LineTrajectory((0, 0), (10, 0))
        np.testing.assert_allclose(traj.position_at(5.0), [5.0, 0.0])

    def test_out_of_range_distance(self):
        traj = LineTrajectory((0, 0), (1, 0))
        with pytest.raises(MobilityError):
            traj.position_at(2.0)
        with pytest.raises(MobilityError):
            traj.position_at(-0.1)

    def test_sampling_even_spacing(self):
        traj = LineTrajectory((0, 0), (2, 0))
        samples = traj.sample(5)
        xs = [s.position[0] for s in samples]
        np.testing.assert_allclose(xs, [0, 0.5, 1.0, 1.5, 2.0])

    def test_sample_times_match_speed(self):
        traj = LineTrajectory((0, 0), (1, 0), speed_mps=0.5)
        samples = traj.sample(3)
        assert samples[-1].time == pytest.approx(2.0)

    def test_sample_every(self):
        traj = LineTrajectory((0, 0), (1, 0))
        samples = traj.sample_every(0.1)
        assert len(samples) == 11

    def test_invalid_construction(self):
        with pytest.raises(MobilityError):
            LineTrajectory((0, 0), (0, 0))
        with pytest.raises(MobilityError):
            LineTrajectory((0, 0), (1, 0), speed_mps=0.0)
        with pytest.raises(MobilityError):
            Trajectory([(0, 0)], 1.0)

    def test_minimum_samples(self):
        with pytest.raises(MobilityError):
            LineTrajectory((0, 0), (1, 0)).sample(1)


class TestAperture:
    def test_aperture_length(self):
        traj = LineTrajectory((0, 0), (5, 0))
        sub = traj.aperture_segment(2.0)
        assert sub.length == pytest.approx(2.0)

    def test_aperture_centered(self):
        traj = LineTrajectory((0, 0), (4, 0))
        sub = traj.aperture_segment(2.0, center_fraction=0.5)
        assert sub.position_at(0.0)[0] == pytest.approx(1.0)
        assert sub.position_at(2.0)[0] == pytest.approx(3.0)

    def test_aperture_clipped_to_ends(self):
        traj = LineTrajectory((0, 0), (4, 0))
        sub = traj.aperture_segment(2.0, center_fraction=0.0)
        assert sub.position_at(0.0)[0] == pytest.approx(0.0)

    def test_aperture_too_long(self):
        with pytest.raises(MobilityError):
            LineTrajectory((0, 0), (1, 0)).aperture_segment(2.0)

    @given(st.floats(0.2, 4.9), st.floats(0.0, 1.0))
    def test_aperture_within_parent(self, length, center):
        traj = LineTrajectory((0, 0), (5, 0))
        sub = traj.aperture_segment(length, center)
        assert sub.length == pytest.approx(length, rel=1e-6)
        for d in (0.0, sub.length):
            p = sub.position_at(d)
            assert -1e-9 <= p[0] <= 5.0 + 1e-9


class TestWaypoints:
    """A multi-segment path is the base :class:`Trajectory` itself."""

    def test_waypoint_path_length(self):
        traj = Trajectory([(0, 0), (1, 0), (1, 1)], speed_mps=0.5)
        assert traj.length == pytest.approx(2.0)

    def test_waypoint_interpolation_across_segments(self):
        traj = Trajectory([(0, 0), (1, 0), (1, 1)], speed_mps=0.5)
        np.testing.assert_allclose(traj.position_at(1.5), [1.0, 0.5])
