"""Tests for the search grid and the SAR matched filter."""

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT, UHF_CENTER_FREQUENCY
from repro.errors import InsufficientMeasurementsError, LocalizationError
from repro.localization import Grid2D, Heatmap, sar_heatmap, sar_profile

F = UHF_CENTER_FREQUENCY


def synth_channels(positions, tag, f=F, amplitude=1.0):
    """Ideal round-trip half-link channels for a tag location."""
    distances = np.linalg.norm(positions - tag, axis=1)
    return amplitude * np.exp(-2j * np.pi * f * 2 * distances / SPEED_OF_LIGHT)


@pytest.fixture
def line_array():
    xs = np.linspace(0.0, 3.0, 40)
    return np.column_stack([xs, np.zeros_like(xs)])


class TestGrid2D:
    def test_shape_and_meshgrid(self):
        grid = Grid2D(0.0, 1.0, 0.0, 2.0, 0.5)
        assert grid.shape == (5, 3)
        gx, gy = grid.meshgrid()
        assert gx.shape == grid.shape

    def test_invalid_extents(self):
        with pytest.raises(LocalizationError):
            Grid2D(1.0, 0.0, 0.0, 1.0, 0.1)
        with pytest.raises(LocalizationError):
            Grid2D(0.0, 1.0, 0.0, 1.0, -0.1)

    def test_too_many_points_rejected(self):
        with pytest.raises(LocalizationError):
            Grid2D(0.0, 100.0, 0.0, 100.0, 0.001)

    def test_refined_around(self):
        grid = Grid2D(0.0, 10.0, 0.0, 10.0, 0.5)
        fine = grid.refined_around((5.0, 5.0), span=1.0, resolution=0.1)
        assert fine.x_min == pytest.approx(4.5)
        assert fine.resolution == 0.1

    def test_around_trajectory(self):
        positions = np.array([[0.0, 0.0], [3.0, 0.0]])
        grid = Grid2D.around_trajectory(positions, margin=2.0, resolution=0.5)
        assert grid.x_min == pytest.approx(-2.0)
        assert grid.x_max == pytest.approx(5.0)
        with pytest.raises(LocalizationError):
            Grid2D.around_trajectory(positions, margin=-1.0, resolution=0.5)


class TestHeatmap:
    def test_shape_validated(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.5)
        with pytest.raises(LocalizationError):
            Heatmap(grid=grid, values=np.zeros((2, 2)))

    def test_argmax_position(self):
        grid = Grid2D(0.0, 1.0, 0.0, 1.0, 0.5)
        values = np.zeros(grid.shape)
        values[2, 1] = 1.0
        hm = Heatmap(grid=grid, values=values)
        np.testing.assert_allclose(hm.argmax_position(), [0.5, 1.0])


class TestSar:
    def test_peak_at_true_location(self, line_array):
        tag = np.array([1.2, 1.7])
        channels = synth_channels(line_array, tag)
        grid = Grid2D(-0.5, 3.5, 0.3, 3.0, 0.02)
        heatmap = sar_heatmap(line_array, channels, grid, F)
        estimate = heatmap.argmax_position()
        assert np.linalg.norm(estimate - tag) < 0.03

    def test_2d_fix_from_1d_trajectory(self, line_array):
        """The non-linear projection property the paper highlights."""
        for tag in ([0.5, 0.8], [2.5, 2.2]):
            channels = synth_channels(line_array, np.asarray(tag))
            grid = Grid2D(-0.5, 3.5, 0.3, 3.0, 0.05)
            estimate = sar_heatmap(line_array, channels, grid, F).argmax_position()
            assert np.linalg.norm(estimate - np.asarray(tag)) < 0.08

    def test_peak_normalized_magnitude(self, line_array):
        tag = np.array([1.0, 1.0])
        channels = synth_channels(line_array, tag, amplitude=0.123)
        profile = sar_profile(line_array, channels, tag[None, :], F)
        assert profile[0] == pytest.approx(1.0, abs=1e-6)

    def test_normalization_equalizes_unequal_amplitudes(self, line_array):
        tag = np.array([1.0, 1.0])
        channels = synth_channels(line_array, tag)
        # Scale one measurement by a large factor: with normalize=True
        # it must not dominate the solution.
        channels[0] *= 1000.0
        profile = sar_profile(line_array, channels, tag[None, :], F, normalize=True)
        assert profile[0] == pytest.approx(1.0, abs=1e-6)

    def test_profile_input_validation(self, line_array):
        channels = synth_channels(line_array, np.array([1.0, 1.0]))
        with pytest.raises(LocalizationError):
            sar_profile(line_array, channels[:-1], np.zeros((1, 2)), F)
        with pytest.raises(LocalizationError):
            sar_profile(line_array, channels, np.zeros((1, 3)), F)
        with pytest.raises(LocalizationError):
            sar_profile(line_array, channels, np.zeros((1, 2)), -F)
        with pytest.raises(InsufficientMeasurementsError):
            sar_profile(line_array[:1], channels[:1], np.zeros((1, 2)), F)

    def test_resolution_improves_with_aperture(self):
        """Larger aperture -> narrower main lobe (the Fig. 13 physics)."""
        tag = np.array([1.5, 1.5])
        widths = []
        for aperture in (0.5, 2.5):
            xs = np.linspace(1.5 - aperture / 2, 1.5 + aperture / 2, 40)
            positions = np.column_stack([xs, np.zeros_like(xs)])
            channels = synth_channels(positions, tag)
            # Sample P along x through the tag; measure the -3 dB width.
            probe_x = np.linspace(0.5, 2.5, 401)
            probe = np.column_stack([probe_x, np.full_like(probe_x, 1.5)])
            profile = sar_profile(positions, channels, probe, F)
            above = probe_x[profile > 0.707 * profile.max()]
            widths.append(above[-1] - above[0])
        assert widths[1] < widths[0]

    def test_zero_channel_measurement_tolerated(self, line_array):
        tag = np.array([1.0, 1.0])
        channels = synth_channels(line_array, tag)
        channels[3] = 0.0
        profile = sar_profile(line_array, channels, tag[None, :], F)
        assert profile[0] > 0.9
