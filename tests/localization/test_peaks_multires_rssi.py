"""Tests for peak selection, multi-resolution search, and the RSSI baseline."""

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT, UHF_CENTER_FREQUENCY
from repro.errors import InsufficientMeasurementsError, LocalizationError
from repro.localization import (
    Grid2D,
    Heatmap,
    find_peaks,
    multires_locate,
    rssi_distances,
    rssi_locate,
    sar_heatmap,
    select_nearest_to_trajectory,
)
from repro.localization.peaks import distance_to_polyline

F = UHF_CENTER_FREQUENCY


def synth_channels(positions, tag, f=F):
    distances = np.linalg.norm(positions - tag, axis=1)
    amplitudes = (SPEED_OF_LIGHT / f / (4 * np.pi * distances)) ** 2
    return amplitudes * np.exp(-2j * np.pi * f * 2 * distances / SPEED_OF_LIGHT)


@pytest.fixture
def line_array():
    xs = np.linspace(0.0, 3.0, 40)
    return np.column_stack([xs, np.zeros_like(xs)])


def two_peak_heatmap():
    grid = Grid2D(0.0, 4.0, 0.0, 4.0, 0.5)
    values = np.zeros(grid.shape)
    values[2, 2] = 0.8  # near peak at (1.0, 1.0)
    values[6, 6] = 1.0  # far peak at (3.0, 3.0)
    return Heatmap(grid=grid, values=values)


class TestPeaks:
    def test_find_both_peaks(self):
        peaks = find_peaks(two_peak_heatmap(), relative_threshold=0.5)
        assert len(peaks) == 2
        np.testing.assert_allclose(peaks[0].position, [3.0, 3.0])

    def test_threshold_filters_weak_peaks(self):
        peaks = find_peaks(two_peak_heatmap(), relative_threshold=0.9)
        assert len(peaks) == 1

    def test_invalid_threshold(self):
        with pytest.raises(LocalizationError):
            find_peaks(two_peak_heatmap(), relative_threshold=0.0)

    def test_flat_heatmap_everything_is_peak(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.5)
        hm = Heatmap(grid=grid, values=np.ones(grid.shape))
        peaks = find_peaks(hm, relative_threshold=0.5, max_peaks=4)
        assert len(peaks) == 4

    def test_nearest_selection(self):
        """The §5.2 rule: the weaker-but-nearer peak wins."""
        trajectory = np.array([[0.0, 0.0], [2.0, 0.0]])
        peaks = find_peaks(two_peak_heatmap(), relative_threshold=0.5)
        chosen = select_nearest_to_trajectory(peaks, trajectory)
        np.testing.assert_allclose(chosen.position, [1.0, 1.0])
        assert chosen.distance_to_trajectory_m == pytest.approx(1.0)

    def test_empty_selection_rejected(self):
        with pytest.raises(LocalizationError):
            select_nearest_to_trajectory([], np.zeros((2, 2)))

    def test_distance_to_polyline(self):
        poly = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0]])
        assert distance_to_polyline((1.0, 1.0), poly) == pytest.approx(1.0)
        assert distance_to_polyline((3.0, 1.0), poly) == pytest.approx(1.0)
        assert distance_to_polyline((0.0, 0.0), poly) == pytest.approx(0.0)
        # Beyond an endpoint: distance to the endpoint.
        assert distance_to_polyline((-1.0, 0.0), poly) == pytest.approx(1.0)

    def test_distance_to_single_point_polyline(self):
        assert distance_to_polyline((3.0, 4.0), np.array([[0.0, 0.0]])) == 5.0


class TestMultires:
    def test_refines_estimate(self, line_array):
        tag = np.array([1.3, 1.8])
        channels = synth_channels(line_array, tag)
        grid = Grid2D(-0.5, 3.5, 0.3, 3.5, 0.25)
        result = multires_locate(
            line_array, channels, grid, F, fine_resolution=0.01
        )
        assert np.linalg.norm(result.position - tag) < 0.02
        # The fine stage beats the coarse resolution.
        coarse_estimate = result.coarse_heatmap.argmax_position()
        assert np.linalg.norm(result.position - tag) <= np.linalg.norm(
            coarse_estimate - tag
        ) + 1e-9

    def test_argmax_rule_option(self, line_array):
        tag = np.array([1.3, 1.8])
        channels = synth_channels(line_array, tag)
        grid = Grid2D(-0.5, 3.5, 0.3, 3.5, 0.25)
        result = multires_locate(
            line_array, channels, grid, F, use_nearest_peak_rule=False
        )
        assert np.linalg.norm(result.position - tag) < 0.05

    def test_one_segment_fine_map_is_the_segment_map(self, line_array):
        # refine() weights a lone segment by K/K = 1.0: its fine map is
        # that segment's sar_heatmap bit for bit.
        channels = synth_channels(line_array, np.array([1.3, 1.8]))
        grid = Grid2D(-0.5, 3.5, 0.3, 3.5, 0.25)
        result = multires_locate(line_array, channels, grid, F)
        direct = sar_heatmap(
            line_array, channels, result.fine_heatmap.grid, F
        )
        np.testing.assert_array_equal(
            result.fine_heatmap.values, direct.values
        )

    def test_invalid_fine_parameters(self, line_array):
        channels = synth_channels(line_array, np.array([1.0, 1.0]))
        grid = Grid2D(-0.5, 3.5, 0.3, 3.5, 0.25)
        with pytest.raises(LocalizationError):
            multires_locate(line_array, channels, grid, F, fine_resolution=0.5)
        with pytest.raises(LocalizationError):
            multires_locate(line_array, channels, grid, F, fine_resolution=-0.01)


class TestRssi:
    def test_distances_inverted_exactly(self, line_array):
        """Free-space magnitudes invert to the true distances."""
        tag = np.array([1.0, 2.0])
        channels = synth_channels(line_array, tag)
        distances = rssi_distances(channels, F, calibration_gain=1.0)
        true = np.linalg.norm(line_array - tag, axis=1)
        np.testing.assert_allclose(distances, true, rtol=1e-9)

    def test_calibration_gain_scales_distances(self, line_array):
        channels = synth_channels(line_array, np.array([1.0, 2.0]))
        base = rssi_distances(channels, F, 1.0)
        scaled = rssi_distances(channels, F, 4.0)
        np.testing.assert_allclose(scaled, 2.0 * base)

    def test_locate_exact_in_free_space(self, line_array):
        tag = np.array([1.0, 2.0])
        channels = synth_channels(line_array, tag)
        grid = Grid2D(-0.5, 3.5, 0.3, 3.5, 0.05)
        estimate, heatmap = rssi_locate(line_array, channels, grid, F)
        assert np.linalg.norm(estimate - tag) < 0.08
        assert heatmap.values.shape == grid.shape

    def test_needs_three_poses(self):
        positions = np.zeros((2, 2))
        positions[1, 0] = 1.0
        channels = np.ones(2, dtype=complex)
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(InsufficientMeasurementsError):
            rssi_locate(positions, channels, grid, F)

    def test_invalid_inputs(self):
        with pytest.raises(LocalizationError):
            rssi_distances(np.array([1.0 + 0j]), -F)
        with pytest.raises(LocalizationError):
            rssi_distances(np.array([0.0 + 0j]), F)
        with pytest.raises(LocalizationError):
            rssi_distances(np.array([1.0 + 0j]), F, calibration_gain=0.0)
