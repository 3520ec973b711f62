"""Incremental SAR vs the batch pipeline: bit-level equivalence.

The acceptance bar for the streaming accumulator: after any update
order — one pose at a time, random micro-batches, or one big batch —
``finalize()`` must match the offline batch ``Localizer`` within 1e-9
on every golden scene, because the coherent sum is linear in the poses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import SPEED_OF_LIGHT, UHF_CENTER_FREQUENCY
from repro.errors import InsufficientMeasurementsError, LocalizationError
from repro.localization import Grid2D, IncrementalSar, Localizer, sar_heatmap
from repro.localization.disentangle import disentangle_series
from repro.scenarios.trials import heatmap_trial, warehouse_trial

F = UHF_CENTER_FREQUENCY

GOLDEN_SCENES = {
    "los": lambda: heatmap_trial("los_aisle", seed=0),
    "multipath": lambda: heatmap_trial("cold_storage_aisles", seed=0),
    "fig12": lambda: warehouse_trial("paper_warehouse_two_floor", 3),
}


def stream_scene(scenario, batch_sizes=None, rng=None):
    """Feed a scenario's measurements into a fresh accumulator."""
    grid = scenario.search_grid
    inc = IncrementalSar(F, grid)
    measurements = list(scenario.measurements)
    if batch_sizes is None:
        for measurement in measurements:
            inc.update_measurement(measurement)
        return inc
    positions, channels = disentangle_series(measurements)
    start = 0
    for size in batch_sizes:
        stop = min(start + size, len(positions))
        if stop > start:
            inc.update(positions[start:stop], channels[start:stop])
        start = stop
    if start < len(positions):
        inc.update(positions[start:], channels[start:])
    return inc


@pytest.mark.parametrize("scene", sorted(GOLDEN_SCENES))
class TestGoldenSceneEquivalence:
    def test_streamed_finalize_matches_batch_localizer(self, scene):
        scenario = GOLDEN_SCENES[scene]()
        batch = Localizer(frequency_hz=F).locate(
            scenario.measurements, search_grid=scenario.search_grid
        )
        inc = stream_scene(scenario)
        streamed = inc.finalize()
        np.testing.assert_allclose(
            streamed.position, batch.position, atol=1e-9
        )
        np.testing.assert_allclose(
            streamed.coarse_heatmap.values,
            batch.coarse_heatmap.values,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            streamed.fine_heatmap.values,
            batch.fine_heatmap.values,
            atol=1e-9,
        )
        assert streamed.peak_distance_to_trajectory_m == pytest.approx(
            batch.peak_distance_to_trajectory_m, abs=1e-9
        )

    def test_random_micro_batches_match_serial(self, scene):
        scenario = GOLDEN_SCENES[scene]()
        rng = np.random.default_rng(scene.encode()[0])
        n = len(scenario.measurements)
        sizes = []
        remaining = n
        while remaining > 0:
            size = int(rng.integers(1, 8))
            sizes.append(size)
            remaining -= size
        serial = stream_scene(scenario)
        batched = stream_scene(scenario, batch_sizes=sizes)
        np.testing.assert_allclose(
            batched.coarse_heatmap().values,
            serial.coarse_heatmap().values,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            batched.finalize().position,
            serial.finalize().position,
            atol=1e-9,
        )

    def test_coarse_heatmap_matches_batch_sar_heatmap(self, scene):
        scenario = GOLDEN_SCENES[scene]()
        inc = stream_scene(scenario)
        positions, channels = disentangle_series(scenario.measurements)
        reference = sar_heatmap(
            positions, channels, scenario.search_grid, F
        )
        np.testing.assert_allclose(
            inc.coarse_heatmap().values, reference.values, atol=1e-9
        )


def ideal_channels(positions, tag):
    d = np.linalg.norm(positions - tag, axis=1)
    return np.exp(-2j * np.pi * F * 2.0 * d / SPEED_OF_LIGHT)


tag_points = st.tuples(st.floats(0.4, 2.6), st.floats(0.7, 2.3)).map(
    np.array
)
pose_counts = st.integers(min_value=8, max_value=40)
resolutions = st.sampled_from([0.08, 0.1, 0.15, 0.2])
split_seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=25, deadline=None)
@given(tag_points, pose_counts, resolutions, split_seeds)
def test_property_serial_equals_micro_batched(tag, n, resolution, split_seed):
    """Any partition of any trajectory accumulates to the same state."""
    xs = np.linspace(0.0, 3.0, n)
    positions = np.column_stack([xs, np.zeros(n)])
    channels = ideal_channels(positions, tag)
    grid = Grid2D(-0.5, 3.5, 0.2, 3.0, resolution)

    serial = IncrementalSar(F, grid)
    serial.update(positions, channels)

    rng = np.random.default_rng(split_seed)
    batched = IncrementalSar(F, grid)
    start = 0
    while start < n:
        stop = min(n, start + int(rng.integers(1, 7)))
        batched.update(positions[start:stop], channels[start:stop])
        start = stop

    np.testing.assert_allclose(
        batched.coarse_heatmap().values,
        serial.coarse_heatmap().values,
        atol=1e-9,
    )
    np.testing.assert_allclose(
        batched.finalize().position, serial.finalize().position, atol=1e-9
    )
    hist_b = batched.history()
    hist_s = serial.history()
    np.testing.assert_array_equal(hist_b[0], hist_s[0])
    np.testing.assert_array_equal(hist_b[1], hist_s[1])


class TestValidation:
    def make(self):
        return IncrementalSar(F, Grid2D(0.0, 3.0, 0.0, 3.0, 0.2))

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(LocalizationError):
            IncrementalSar(0.0, Grid2D(0.0, 1.0, 0.0, 1.0, 0.25))

    def test_fine_resolution_must_refine_coarse(self):
        # Finalize refines at 2 cm, so a 1 cm grid is refused up front.
        with pytest.raises(LocalizationError, match="refine the coarse grid"):
            IncrementalSar(F, Grid2D(0.0, 1.0, 0.0, 1.0, 0.01))

    def test_bad_position_shape_rejected(self):
        with pytest.raises(LocalizationError):
            self.make().update(np.zeros((2, 3)), np.ones(2, dtype=complex))

    def test_channel_count_mismatch_rejected(self):
        with pytest.raises(LocalizationError):
            self.make().update(np.zeros((2, 2)), np.ones(3, dtype=complex))

    def test_nonfinite_values_rejected(self):
        inc = self.make()
        with pytest.raises(LocalizationError):
            inc.update(
                np.array([[np.nan, 0.0]]), np.ones(1, dtype=complex)
            )

    def test_empty_heatmap_is_undefined(self):
        with pytest.raises(InsufficientMeasurementsError):
            self.make().coarse_heatmap()

    def test_single_pose_cannot_finalize(self):
        inc = self.make()
        inc.update(np.array([[0.0, 0.0]]), np.ones(1, dtype=complex))
        with pytest.raises(InsufficientMeasurementsError):
            inc.finalize()

    def test_zero_magnitude_channels_are_kept_unwhitened(self):
        inc = self.make()
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        channels = np.array([0.0 + 0.0j, 1.0 + 0.0j])
        inc.update(positions, channels)
        assert inc.n_poses == 2
        assert np.all(np.isfinite(inc.coarse_heatmap().values))
