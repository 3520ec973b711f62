"""Chunked evaluation must not change SAR numerics.

The matched filter sums coherently over poses, and the chunk axis is
the candidate-node axis — chunk boundaries therefore cannot change any
node's sum. These tests pin that claim to 1e-12 across chunk widths,
storage modes, and the shared-geometry fast path. The chunk width is a
:class:`SarGeometry` parameter; the one-shot helpers take a geometry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.localization import (
    DEFAULT_CHUNK_NODES,
    Grid2D,
    SarGeometry,
    grid_geometry,
    sar_heatmap,
    sar_profile,
)


@pytest.fixture()
def scene():
    rng = np.random.default_rng(42)
    positions = np.column_stack(
        [np.linspace(-1.0, 1.0, 25), np.zeros(25)]
    )
    channels = rng.normal(size=25) + 1j * rng.normal(size=25)
    grid = Grid2D(x_min=-3.0, x_max=3.0, y_min=0.5, y_max=4.5, resolution=0.1)
    return positions, channels, grid


def grid_nodes(grid):
    gx, gy = grid.meshgrid()
    return np.column_stack([gx.ravel(), gy.ravel()])


def test_default_chunk_nodes_is_public():
    assert isinstance(DEFAULT_CHUNK_NODES, int)
    assert DEFAULT_CHUNK_NODES >= 1


@pytest.mark.parametrize("chunk_nodes", [1, 7, 64, 1000, DEFAULT_CHUNK_NODES])
def test_heatmap_chunked_vs_unchunked(scene, chunk_nodes):
    positions, channels, grid = scene
    nodes = grid_nodes(grid)
    reference = sar_heatmap(
        positions,
        channels,
        grid,
        915e6,
        geometry=SarGeometry(positions, nodes, chunk_nodes=grid.n_points),
    )
    chunked = sar_heatmap(
        positions,
        channels,
        grid,
        915e6,
        geometry=SarGeometry(positions, nodes, chunk_nodes=chunk_nodes),
    )
    np.testing.assert_allclose(
        chunked.values, reference.values, rtol=0.0, atol=1e-12
    )


@pytest.mark.parametrize("chunk_nodes", [3, 50, 999])
def test_profile_chunked_vs_unchunked(scene, chunk_nodes):
    positions, channels, _ = scene
    rng = np.random.default_rng(1)
    points = rng.uniform(-3.0, 3.0, size=(501, 2))
    reference = SarGeometry(
        positions, points, chunk_nodes=len(points), store_distances=False
    ).profile(channels, 915e6)
    chunked = SarGeometry(
        positions, points, chunk_nodes=chunk_nodes, store_distances=False
    ).profile(channels, 915e6)
    np.testing.assert_allclose(chunked, reference, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        sar_profile(positions, channels, points, 915e6),
        reference,
        rtol=0.0,
        atol=1e-12,
    )


def test_stored_vs_streamed_distances(scene):
    positions, channels, grid = scene
    nodes = grid_nodes(grid)
    stored = SarGeometry(positions, nodes, chunk_nodes=97, store_distances=True)
    streamed = SarGeometry(
        positions, nodes, chunk_nodes=97, store_distances=False
    )
    assert stored.stores_distances and not streamed.stores_distances
    np.testing.assert_allclose(
        stored.profile(channels, 915e6),
        streamed.profile(channels, 915e6),
        rtol=0.0,
        atol=1e-12,
    )


def test_shared_geometry_matches_fresh_compute(scene):
    positions, channels, grid = scene
    geometry = SarGeometry(positions, grid_nodes(grid), chunk_nodes=111)
    shared = sar_heatmap(positions, channels, grid, 915e6, geometry=geometry)
    fresh = sar_heatmap(positions, channels, grid, 915e6)
    np.testing.assert_allclose(
        shared.values, fresh.values, rtol=0.0, atol=1e-12
    )


def test_rssi_mismatch_chunk_invariant(scene):
    positions, _, grid = scene
    nodes = grid_nodes(grid)
    rng = np.random.default_rng(5)
    ranges_m = rng.uniform(1.0, 5.0, size=len(positions))
    narrow = SarGeometry(positions, nodes, chunk_nodes=13)
    wide = SarGeometry(positions, nodes, chunk_nodes=len(nodes))
    np.testing.assert_allclose(
        narrow.rssi_mismatch(ranges_m),
        wide.rssi_mismatch(ranges_m),
        rtol=0.0,
        atol=1e-12,
    )


def test_geometry_reuse_across_frequencies(scene):
    positions, channels, grid = scene
    geometry = grid_geometry(positions, grid)
    for frequency_hz in (902.75e6, 915e6, 927.25e6):
        shared = sar_heatmap(
            positions, channels, grid, frequency_hz, geometry=geometry
        )
        fresh = sar_heatmap(positions, channels, grid, frequency_hz)
        np.testing.assert_allclose(
            shared.values, fresh.values, rtol=0.0, atol=1e-12
        )
