"""The SAR matched filter with non-linear projections (paper Eq. 11-12).

Every candidate location (x, y) predicts a set of round-trip distances
to the drone poses; the matched filter coherently sums the isolated
half-link channels against those predictions:

    P(x, y) = | sum_k  h_k * exp(+j 2 pi f 2 sqrt((x-x_k)^2+(y-y_k)^2)/c) |

Because the projection is non-linear in (x, y), a 1-D trajectory yields
a 2-D fix (and a 2-D trajectory a 3-D one). The paper notes the reader
may use its own f instead of the relay's f2 since the relay keeps
(f - f2)/f < 0.01; both options are supported and the ablation bench
quantifies the difference.

Batched-pose fast path: the pose->candidate distance tensor depends
only on geometry, not on frequency or channels, so
:class:`SarGeometry` precomputes it once per (trajectory, grid) pair
and reuses it across matched-filter frequencies and across the RSSI
baseline (which scores the same distances). Evaluation is chunked over
candidate nodes to bound peak memory; chunking never changes the
result (each node's coherent sum is independent), and the chunk size is
an explicit, testable parameter of :class:`SarGeometry`.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import InsufficientMeasurementsError, LocalizationError
from repro.localization.grid import Grid2D, Heatmap
from repro.obs import metrics, tracing

#: Default number of candidate nodes evaluated per chunk. Public and
#: overridable per :class:`SarGeometry`: the chunked and unchunked
#: evaluations agree exactly, so this is purely a memory/throughput knob.
DEFAULT_CHUNK_NODES = 200_000

#: Peak elements of the (poses x nodes) working tensor per chunk; the
#: effective chunk width shrinks for long trajectories so temporary
#: arrays stay ~tens of MB.
_MAX_CHUNK_ELEMENTS = 4_000_000

#: Largest (poses x nodes) tensor kept resident for reuse; bigger
#: geometries recompute their chunks on each pass instead of caching
#: ~hundreds of MB of distances.
_MAX_STORE_ELEMENTS = 25_000_000


def check_frequency_hz(frequency_hz: float) -> None:
    """Refuse a matched-filter frequency that is not positive and finite."""
    if not (math.isfinite(frequency_hz) and frequency_hz > 0):
        raise LocalizationError(
            f"frequency must be positive and finite, got {frequency_hz}"
        )


def _validate(
    positions: np.ndarray, channels: np.ndarray, frequency_hz: float
) -> Tuple[np.ndarray, np.ndarray]:
    positions = np.asarray(positions, dtype=float)
    channels = np.asarray(channels, dtype=complex)
    if positions.ndim != 2 or positions.shape[1] not in (2, 3):
        raise LocalizationError(
            f"positions must be (K, 2) or (K, 3), got {positions.shape}"
        )
    if channels.shape != (positions.shape[0],):
        raise LocalizationError(
            f"got {len(channels)} channels for {len(positions)} positions"
        )
    if len(channels) < 2:
        raise InsufficientMeasurementsError(
            "the synthetic aperture needs at least two poses"
        )
    check_frequency_hz(frequency_hz)
    if not np.all(np.isfinite(positions)) or not np.all(np.isfinite(channels)):
        raise LocalizationError(
            "positions/channels contain NaN or Inf; drop bad measurements "
            "before solving"
        )
    # A collapsed aperture yields a ring ambiguity, not a fix: refuse it
    # rather than return an arbitrary point on the ring.
    wavelength = SPEED_OF_LIGHT / frequency_hz
    extent = float(np.max(np.ptp(positions, axis=0)))
    if extent < wavelength / 4.0:
        raise InsufficientMeasurementsError(
            f"aperture extent {extent:.3f} m is below a quarter wavelength "
            f"({wavelength / 4.0:.3f} m): the poses do not form an array"
        )
    return positions, channels


class SarGeometry:
    """Pose->candidate distances for one (trajectory, candidate set) pair.

    The distance tensor is the only geometry the matched filter needs;
    computing it dominates a profile evaluation and is identical for
    every frequency, channel draw, and for the RSSI baseline. Build it
    once per trajectory and reuse it.

    Parameters
    ----------
    positions:
        Drone poses, shape (K, 2) or (K, 3).
    points:
        Candidate locations, shape (N, d) with d matching positions.
    chunk_nodes:
        Candidate nodes per evaluation chunk. The effective width also
        honors an internal element budget so the (K, chunk) temporaries
        stay small for long trajectories.
    store_distances:
        Keep the distance chunks resident for reuse (the fast path).
        ``None`` stores automatically while K*N stays under an internal
        budget; one-shot evaluations over huge volumes recompute chunks
        on the fly instead.
    """

    def __init__(
        self,
        positions: np.ndarray,
        points: np.ndarray,
        chunk_nodes: int = DEFAULT_CHUNK_NODES,
        store_distances: Optional[bool] = None,
    ) -> None:
        positions = np.asarray(positions, dtype=float)
        points = np.asarray(points, dtype=float)
        if positions.ndim != 2 or positions.shape[1] not in (2, 3):
            raise LocalizationError(
                f"positions must be (K, 2) or (K, 3), got {positions.shape}"
            )
        if points.ndim != 2 or points.shape[1] != positions.shape[1]:
            raise LocalizationError(
                f"points must be (N, {positions.shape[1]}), got {points.shape}"
            )
        if chunk_nodes < 1:
            raise LocalizationError(
                f"chunk_nodes must be >= 1, got {chunk_nodes}"
            )
        self.positions = positions
        self.points = points
        self.chunk_nodes = int(
            min(chunk_nodes, max(1, _MAX_CHUNK_ELEMENTS // max(1, len(positions))))
        )
        if store_distances is None:
            store_distances = (
                len(positions) * len(points) <= _MAX_STORE_ELEMENTS
            )
        self.stores_distances = bool(store_distances)
        if self.stores_distances:
            with tracing.span(
                "sar.geometry", poses=len(positions), points=len(points)
            ):
                self._chunks: "Optional[list[np.ndarray]]" = [
                    chunk for _, chunk in self._compute_chunks()
                ]
        else:
            self._chunks = None

    def _compute_chunks(self) -> Iterator[Tuple[slice, np.ndarray]]:
        """Distance chunks, freshly computed."""
        for start in range(0, len(self.points), self.chunk_nodes):
            stop = min(start + self.chunk_nodes, len(self.points))
            yield slice(start, stop), np.linalg.norm(
                self.points[start:stop][None, :, :]
                - self.positions[:, None, :],
                axis=2,
            )

    @property
    def n_poses(self) -> int:
        """Trajectory length K."""
        return len(self.positions)

    @property
    def n_points(self) -> int:
        """Candidate count N."""
        return len(self.points)

    def iter_chunks(self) -> Iterator[Tuple[slice, np.ndarray]]:
        """``(node_slice, distances)`` pairs; distances is (K, chunk)."""
        if self._chunks is None:
            yield from self._compute_chunks()
            return
        start = 0
        for chunk in self._chunks:
            width = chunk.shape[1]
            yield slice(start, start + width), chunk
            start += width

    def profile(
        self,
        channels: np.ndarray,
        frequency_hz: float,
        normalize: bool = True,
    ) -> np.ndarray:
        """The matched-filter profile P at every candidate point.

        ``normalize=True`` whitens each measurement to unit magnitude so
        that near poses (with much stronger channels) do not dominate
        the projection — the standard SAR back-projection weighting.
        """
        _validate(self.positions, channels, frequency_hz)
        with tracing.span(
            "sar.project", poses=self.n_poses, points=self.n_points
        ):
            metrics.count("localization.sar.grid_points", self.n_points)
            weights = np.asarray(channels, dtype=complex).copy()
            if normalize:
                magnitudes = np.abs(weights)
                nonzero = magnitudes > 0
                weights[nonzero] = weights[nonzero] / magnitudes[nonzero]
            k_factor = 2.0 * np.pi * frequency_hz * 2.0 / SPEED_OF_LIGHT
            values = np.empty(self.n_points)
            for node_slice, distances_m in self.iter_chunks():
                phases = np.exp(1j * (k_factor * distances_m))
                phases *= weights[:, None]
                values[node_slice] = np.abs(phases.sum(axis=0))
            return values / len(weights)

    def rssi_mismatch(self, distances_m: np.ndarray) -> np.ndarray:
        """Mean squared distance mismatch per candidate (RSSI baseline).

        ``distances_m`` holds one RSSI-inverted relay-tag distance per
        pose; the score is the mean over poses of the squared error
        against this geometry's predicted distances.
        """
        distances_m = np.asarray(distances_m, dtype=float)
        if distances_m.shape != (self.n_poses,):
            raise LocalizationError(
                f"expected {self.n_poses} distances, got {distances_m.shape}"
            )
        with tracing.span(
            "sar.rssi_mismatch", poses=self.n_poses, points=self.n_points
        ):
            metrics.count("localization.rssi.grid_points", self.n_points)
            mismatch = np.empty(self.n_points)
            for node_slice, predicted_m in self.iter_chunks():
                mismatch[node_slice] = np.mean(
                    (predicted_m - distances_m[:, None]) ** 2, axis=0
                )
            return mismatch


def grid_geometry(positions: np.ndarray, grid: Grid2D) -> SarGeometry:
    """Geometry between a trajectory and every node of a search grid."""
    gx, gy = grid.meshgrid()
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    return SarGeometry(positions, nodes)


def sar_profile(
    positions: np.ndarray,
    channels: np.ndarray,
    points: np.ndarray,
    frequency_hz: float,
    normalize: bool = True,
) -> np.ndarray:
    """P evaluated at arbitrary candidate points of shape (N, 2) or (N, 3).

    The formulation is dimension-agnostic: 2-D localization from a 1-D
    trajectory is the paper's main mode, and a 2-D (planar) trajectory
    yields a 3-D fix the same way (§5.2). Positions and points must
    share their dimensionality.

    One-shot wrapper over :class:`SarGeometry`; evaluating several
    frequencies (or the RSSI baseline) against the same trajectory and
    candidates should build the geometry once instead.
    """
    positions, channels = _validate(positions, channels, frequency_hz)
    geometry = SarGeometry(positions, points, store_distances=False)
    return geometry.profile(channels, frequency_hz, normalize)


def sar_heatmap(
    positions: np.ndarray,
    channels: np.ndarray,
    grid: Grid2D,
    frequency_hz: float,
    normalize: bool = True,
    geometry: Optional[SarGeometry] = None,
) -> Heatmap:
    """P(x, y) over a whole grid (the images of paper Fig. 6).

    Pass a precomputed ``geometry`` (from :func:`grid_geometry` on the
    same trajectory and grid) to skip recomputing distances — the fast
    path the Fig. 12/13 sweeps use across frequencies and baselines.
    """
    if geometry is None:
        geometry = grid_geometry(positions, grid)
    elif geometry.n_points != grid.n_points:
        raise LocalizationError(
            f"geometry covers {geometry.n_points} points but the grid has "
            f"{grid.n_points}; build it from this grid"
        )
    values = geometry.profile(channels, frequency_hz, normalize)
    return Heatmap(grid=grid, values=values.reshape(grid.shape))
