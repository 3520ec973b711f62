"""End-to-end tests of the Localizer facade."""

import numpy as np
import pytest

from repro.channel import Environment
from repro.channel.environment import STEEL
from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import LocalizationError
from repro.localization import Grid2D, Localizer, MeasurementModel
from repro.mobility import LineTrajectory

F = UHF_CENTER_FREQUENCY


def make_measurements(tag, reader=(-8.0, 0.0), env=None, snr_db=None, seed=0):
    model = MeasurementModel(environment=env, reader_position=reader)
    samples = LineTrajectory((0.0, 0.0), (3.0, 0.0)).sample_every(0.05)
    rng = np.random.default_rng(seed) if snr_db is not None else None
    return model.measure_along(samples, tag, rng, snr_db or np.inf)


HALF_PLANE = Grid2D(-1.0, 4.0, 0.2, 4.0, 0.10)


class TestLocalizer:
    def test_noiseless_localization_is_nearly_exact(self):
        tag = (1.4, 1.9)
        localizer = Localizer(frequency_hz=F)
        result = localizer.locate(make_measurements(tag), search_grid=HALF_PLANE)
        assert result.error_to(tag) < 0.03

    def test_multiple_tag_positions(self):
        localizer = Localizer(frequency_hz=F)
        for tag in [(0.5, 0.9), (2.6, 1.4), (1.5, 3.0)]:
            result = localizer.locate(
                make_measurements(tag), search_grid=HALF_PLANE
            )
            assert result.error_to(tag) < 0.10, tag

    def test_noise_degrades_gracefully(self):
        tag = (1.4, 1.9)
        localizer = Localizer(frequency_hz=F)
        result = localizer.locate(
            make_measurements(tag, snr_db=10.0), search_grid=HALF_PLANE
        )
        assert result.error_to(tag) < 0.30

    def test_result_carries_heatmaps(self):
        tag = (1.4, 1.9)
        result = Localizer(frequency_hz=F).locate(
            make_measurements(tag), search_grid=HALF_PLANE
        )
        assert result.coarse_heatmap.values.size > 0
        assert result.fine_heatmap.grid.resolution < HALF_PLANE.resolution
        assert result.peak_distance_to_trajectory_m >= 0.0

    def test_default_grid_from_trajectory(self):
        tag = (1.4, 1.9)
        result = Localizer(frequency_hz=F).locate(make_measurements(tag))
        # Without the half-plane prior the mirror image may win; the
        # estimate is correct up to reflection across the flight line.
        mirrored = np.array([tag[0], -tag[1]])
        error = min(result.error_to(tag), result.error_to(mirrored))
        assert error < 0.05

    def test_multipath_environment(self):
        # Steel shelves flanking an 8 x 5 m aisle.
        env = Environment(max_reflections=2)
        env.add_wall((0.0, -2.5), (8.0, -2.5), STEEL, "shelf-south")
        env.add_wall((0.0, 2.5), (8.0, 2.5), STEEL, "shelf-north")
        tag = (1.5, 1.2)
        localizer = Localizer(frequency_hz=F)
        result = localizer.locate(
            make_measurements(tag, env=env, snr_db=25.0), search_grid=HALF_PLANE
        )
        assert result.error_to(tag) < 0.5

    def test_rssi_baseline_worse_than_sar(self):
        tag = (1.4, 1.9)
        measurements = make_measurements(tag, snr_db=15.0)
        localizer = Localizer(frequency_hz=F)
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        calibration = abs(model.relay_gain / model.reference_gain)
        sar_result, rssi_estimate = localizer.locate_with_baseline(
            measurements, calibration, search_grid=HALF_PLANE
        )
        sar_error = sar_result.error_to(tag)
        rssi_error = float(np.linalg.norm(rssi_estimate - np.asarray(tag)))
        assert sar_error <= rssi_error + 0.05

    def test_invalid_construction(self):
        with pytest.raises(LocalizationError):
            Localizer(frequency_hz=-1.0)
        with pytest.raises(LocalizationError):
            Localizer(frequency_hz=F, coarse_resolution=0.0)
