"""Tests for the through-relay measurement model and Eq. 10."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel import Environment, Wall
from repro.constants import SPEED_OF_LIGHT, UHF_CENTER_FREQUENCY
from repro.errors import (
    ConfigurationError,
    InsufficientMeasurementsError,
    LocalizationError,
)
from repro.localization import (
    MeasurementModel,
    disentangle,
    disentangle_series,
)
from repro.mobility import LineTrajectory

F = UHF_CENTER_FREQUENCY


class TestMeasurementModel:
    def test_half_link_phases_match_distances(self):
        """Eq. 7: phase = -2 pi (f 2 d1 + f2 2 d2) / c for single paths."""
        model = MeasurementModel(reader_position=(0.0, 0.0))
        drone = np.array([4.0, 0.0])
        tag = np.array([4.0, 2.0])
        a_rt = model.reader_relay_round_trip(drone)
        b_rt = model.relay_tag_round_trip(drone, tag)
        expected_a = np.exp(-2j * np.pi * model.f * 2 * 4.0 / SPEED_OF_LIGHT)
        expected_b = np.exp(-2j * np.pi * model.f2 * 2 * 2.0 / SPEED_OF_LIGHT)
        assert np.angle(a_rt) == pytest.approx(np.angle(expected_a), abs=1e-9)
        assert np.angle(b_rt) == pytest.approx(np.angle(expected_b), abs=1e-9)

    def test_measurement_factorizes(self):
        """h_target = A_rt * B_rt * G; h_ref = A_rt * C (noiseless)."""
        model = MeasurementModel(reader_position=(-3.0, 1.0))
        drone, tag = np.array([2.0, 0.0]), np.array([3.0, 2.0])
        m = model.measure(drone, tag, rng=None)
        a_rt = model.reader_relay_round_trip(drone)
        b_rt = model.relay_tag_round_trip(drone, tag)
        assert m.h_target == pytest.approx(a_rt * b_rt * model.relay_gain)
        assert m.h_reference == pytest.approx(a_rt * model.reference_gain)

    def test_noise_scales_with_snr(self):
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        rng = np.random.default_rng(0)
        drone, tag = np.array([2.0, 0.0]), np.array([3.0, 2.0])
        clean = model.measure(drone, tag, rng=None)
        high, low = [], []
        for _ in range(400):
            high.append(model.measure(drone, tag, rng, snr_db=30.0).h_target)
            low.append(model.measure(drone, tag, rng, snr_db=10.0).h_target)
        err_high = np.std(np.abs(np.array(high) - clean.h_target))
        err_low = np.std(np.abs(np.array(low) - clean.h_target))
        assert err_low / err_high == pytest.approx(10.0, rel=0.25)

    def test_measure_along_trajectory(self):
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        samples = LineTrajectory((0, 0), (2, 0)).sample(5)
        out = model.measure_along(samples, (1.0, 1.0))
        assert len(out) == 5
        assert out[0].time == 0.0

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            MeasurementModel(reader_frequency_hz=-1.0)
        with pytest.raises(ConfigurationError):
            MeasurementModel(reference_gain=0.0)


class TestDisentangle:
    def test_division_recovers_half_link(self):
        """Eq. 10 exactly: h_target / h_ref = B_rt * G / C."""
        model = MeasurementModel(reader_position=(-5.0, 0.0))
        drone, tag = np.array([1.0, 0.0]), np.array([2.0, 1.5])
        m = model.measure(drone, tag, rng=None)
        isolated = disentangle(m.h_target, m.h_reference)
        b_rt = model.relay_tag_round_trip(drone, tag)
        expected = b_rt * model.relay_gain / model.reference_gain
        assert isolated == pytest.approx(expected)

    def test_reader_relay_multipath_cancels(self):
        """The point of §5.1: multipath on the reader-relay half-link
        drops out entirely, even though it cannot be modeled away."""
        wall = Wall((-10.0, 3.0), (5.0, 3.0), reflectivity=0.9)
        env = Environment([wall])
        clean_env = Environment([])
        noisy_model = MeasurementModel(environment=env, reader_position=(-5.0, 0.0))
        drone, tag = np.array([1.0, -0.5]), np.array([2.0, -2.0])
        m = noisy_model.measure(drone, tag, rng=None)
        isolated = disentangle(m.h_target, m.h_reference)
        # The relay-tag link is below the wall (no bounce path for it in
        # this geometry? it may have one — compute its own round trip):
        b_rt = noisy_model.relay_tag_round_trip(drone, tag)
        expected = b_rt * noisy_model.relay_gain / noisy_model.reference_gain
        assert isolated == pytest.approx(expected)

    def test_zero_reference_raises(self):
        with pytest.raises(LocalizationError):
            disentangle(1.0 + 0j, 0.0 + 0j)

    def test_series_shapes(self):
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        samples = LineTrajectory((0, 0), (2, 0)).sample(8)
        measurements = model.measure_along(samples, (1.0, 1.0))
        positions, channels = disentangle_series(measurements)
        assert positions.shape == (8, 2)
        assert channels.shape == (8,)

    def test_series_needs_two_measurements(self):
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        one = [model.measure((0.0, 0.0), (1.0, 1.0))]
        with pytest.raises(InsufficientMeasurementsError):
            disentangle_series(one)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.5, 5.0),
        st.floats(-3.0, 3.0),
        st.floats(1.0, 4.0),
    )
    def test_isolated_phase_depends_only_on_tag_link(self, dx, dy, tx, ty):
        """Moving the reader must not change the disentangled channel."""
        drone = np.array([0.0, 0.0])
        tag = np.array([tx, ty])
        if np.allclose(drone, tag):
            return
        readers = [np.array([dx, dy + 6.0]), np.array([dx - 7.0, dy - 6.0])]
        isolated = []
        for reader in readers:
            if np.allclose(reader, drone):
                return
            model = MeasurementModel(reader_position=reader)
            m = model.measure(drone, tag, rng=None)
            isolated.append(disentangle(m.h_target, m.h_reference))
        assert isolated[0] == pytest.approx(isolated[1], rel=1e-9)
