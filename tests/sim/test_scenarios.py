"""Tests for the canned experiment scenarios (trial-builder surface)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios.compiler import projected_distance_snr_db
from repro.scenarios.trials import (
    aperture_trial,
    distance_trial,
    heatmap_trial,
    warehouse_trial,
)


class TestHeatmapScenarios:
    def test_los_scenario_shape(self):
        sc = heatmap_trial("los_aisle", 0)
        assert len(sc.measurements) > 20
        assert sc.search_grid.n_points > 100
        assert sc.calibration_gain_linear > 0

    def test_multipath_scenario_has_reflectors(self):
        sc = heatmap_trial("cold_storage_aisles", 0)
        assert "multipath" in sc.description

    def test_deterministic_per_seed(self):
        a = heatmap_trial("los_aisle", 3)
        b = heatmap_trial("los_aisle", 3)
        assert a.measurements[0].h_target == b.measurements[0].h_target

    def test_seeds_differ(self):
        a = heatmap_trial("los_aisle", 1)
        b = heatmap_trial("los_aisle", 2)
        assert a.measurements[0].h_target != b.measurements[0].h_target


class TestWarehouseTrial:
    def test_tag_within_search_grid(self):
        for seed in range(5):
            sc = warehouse_trial("paper_warehouse_two_floor", seed)
            g = sc.search_grid
            assert g.x_min <= sc.tag_position[0] <= g.x_max
            assert g.y_min - 0.25 <= sc.tag_position[1] <= g.y_max + 0.25

    def test_trajectory_rotated_to_x_axis(self):
        sc = warehouse_trial("paper_warehouse_two_floor", 1)
        ys = sc.trajectory_positions[:, 1]
        # After rotation the path runs along x with only jitter in y.
        assert np.std(ys) < 0.3

    def test_measurement_counts(self):
        sc = warehouse_trial("paper_warehouse_two_floor", 2)
        assert len(sc.measurements) == len(sc.trajectory_positions)
        assert len(sc.measurements) > 40


class TestMicrobenchmarks:
    def test_aperture_controls_path_extent(self):
        short = aperture_trial("aisle_microbench", 0.5, 0)
        long = aperture_trial("aisle_microbench", 2.5, 0)
        extent = lambda sc: np.ptp(sc.trajectory_positions[:, 0])
        assert extent(short) == pytest.approx(0.5, abs=0.1)
        assert extent(long) == pytest.approx(2.5, abs=0.1)

    def test_invalid_aperture(self):
        with pytest.raises(ConfigurationError):
            aperture_trial("aisle_microbench", -1.0, 0)

    def test_rssi_calibration_mismatch_present(self):
        sc = aperture_trial("aisle_microbench", 1.0, 0)
        assert sc.rssi_calibration_gain_linear != sc.calibration_gain_linear

    def test_distance_maps_to_snr(self):
        near = distance_trial("aisle_microbench", 5.0, 0)
        far = distance_trial("aisle_microbench", 50.0, 0)
        assert near.measurements[0].snr_db > far.measurements[0].snr_db

    def test_snr_law(self):
        assert projected_distance_snr_db(5.0) == pytest.approx(46.0)
        assert projected_distance_snr_db(50.0) == pytest.approx(6.0)
        with pytest.raises(ConfigurationError):
            projected_distance_snr_db(0.0)
