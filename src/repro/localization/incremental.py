"""Incremental (streaming) SAR accumulation for online serving.

The matched filter of Eq. 11-12 is *linear in the poses before the
magnitude*: the coherent sum

    S(x, y) = sum_k w_k * exp(+j 2 pi f 2 d_k(x, y) / c)

is a plain sum over poses, so a service that receives measurements one
pose at a time can keep the running complex sum per grid node and fold
each new pose in for O(grid) work — instead of re-projecting the whole
trajectory (O(poses x grid)) on every update. The heatmap at any moment
is ``|S| / K``, exactly what :meth:`repro.localization.sar.SarGeometry.
profile` computes for the poses seen so far.

A session ends in :func:`finalize_segments`, which hands the coarse
map and the retained history to the fine stage the offline batch
:class:`~repro.localization.pipeline.Localizer` runs
(:func:`repro.localization.multires.refine`), so a streamed session
ends with the *same* estimate (the equivalence suite asserts agreement
to 1e-9 on the golden scenes; the accumulation itself is
order-insensitive up to float round-off). A session that several fleet
relays served keeps one accumulator per relay, and
:func:`finalize_segments` combines them noncoherently; a single-relay
session is the one-segment case of the same code.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.constants import SAR_DEFAULT_GRID_RESOLUTION_M, SPEED_OF_LIGHT
from repro.errors import InsufficientMeasurementsError, LocalizationError
from repro.localization.grid import Grid2D, Heatmap
from repro.localization.measurement import ThroughRelayMeasurement
from repro.localization.disentangle import disentangle
from repro.localization.multires import (
    LocalizationResult,
    check_fine_resolution,
    refine,
)
from repro.localization.sar import SarGeometry, _validate, check_frequency_hz
from repro.obs import metrics


def canonical_batch(
    positions: np.ndarray,
    channels: np.ndarray,
    check_finite: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and promote one ``(positions, channels)`` pose block.

    Single poses promote to ``(1, 2)`` / ``(1,)``; anything non-finite
    or shape-mismatched raises :class:`LocalizationError`. Both the
    scalar ingest path (:meth:`IncrementalSar.update`) and the batched
    cross-session kernel (:func:`repro.localization.batched.fold_blocks`)
    run blocks through here, so their admission rules cannot drift.
    ``check_finite=False`` defers the NaN/Inf scan to the caller — the
    batched kernel runs it once over the whole stacked round instead of
    per tiny block (hot-path cost, identical admission outcome).
    """
    positions = np.asarray(positions, dtype=float)
    channels = np.asarray(channels, dtype=complex)
    if positions.ndim == 1:
        positions = positions[None, :]
    if channels.ndim == 0:
        channels = channels[None]
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise LocalizationError(
            f"positions must be (B, 2), got {positions.shape}"
        )
    if channels.shape != (positions.shape[0],):
        raise LocalizationError(
            f"got {len(channels)} channels for {len(positions)} positions"
        )
    if (
        check_finite
        and len(positions)
        and (
            not np.all(np.isfinite(positions))
            or not np.all(np.isfinite(channels))
        )
    ):
        raise LocalizationError(
            "positions/channels contain NaN or Inf; drop bad "
            "measurements before accumulating"
        )
    return positions, channels


def unit_weights(channels: np.ndarray) -> np.ndarray:
    """Channels whitened to unit magnitude (exact zeros pass through).

    The standard SAR back-projection weighting of
    :meth:`~repro.localization.sar.SarGeometry.profile`: near poses with
    much stronger channels must not dominate the coherent sum.
    """
    weights = np.asarray(channels, dtype=complex).copy()
    magnitudes = np.abs(weights)
    nonzero = magnitudes > 0
    weights[nonzero] = weights[nonzero] / magnitudes[nonzero]
    return weights


class IncrementalSar:
    """A running complex-sum heatmap over one search grid.

    Parameters
    ----------
    frequency_hz:
        Matched-filter frequency (the reader's f, as in the pipeline).
    grid:
        Coarse search grid; each update projects onto every node once.
        :meth:`finalize` refines it at the batch ``Localizer``'s default
        fine resolution with the §5.2 rule, so the grid must be at
        least that coarse.
    """

    def __init__(self, frequency_hz: float, grid: Grid2D) -> None:
        check_frequency_hz(frequency_hz)
        check_fine_resolution(SAR_DEFAULT_GRID_RESOLUTION_M, grid.resolution)
        self.frequency_hz = float(frequency_hz)
        self.grid = grid
        gx, gy = grid.meshgrid()
        self._nodes = np.column_stack([gx.ravel(), gy.ravel()])
        self._accumulator = np.zeros(grid.n_points, dtype=complex)
        self._positions: List[np.ndarray] = []
        self._channels: List[np.ndarray] = []
        self._n_poses = 0
        # Grid and frequency are immutable after construction, so the
        # grouping key is computed once (it is read per block on the
        # batched ingest hot path).
        self._signature = (
            self.frequency_hz,
            grid.x_min,
            grid.x_max,
            grid.y_min,
            grid.y_max,
            grid.resolution,
        )

    # -- streaming ingest --------------------------------------------------------

    @property
    def n_poses(self) -> int:
        """Poses folded in so far."""
        return self._n_poses

    @property
    def n_nodes(self) -> int:
        """Grid nodes each pose projects onto (the per-update cost)."""
        return len(self._nodes)

    @property
    def k_factor(self) -> float:
        """Round-trip phase constant ``4*pi*f/c`` of Eq. 11-12."""
        return 2.0 * np.pi * self.frequency_hz * 2.0 / SPEED_OF_LIGHT

    def grid_nodes(self) -> np.ndarray:
        """The ``(N, 2)`` node coordinates (shared array; do not mutate)."""
        return self._nodes

    def batch_signature(self) -> Tuple[float, float, float, float, float, float]:
        """Grouping key for cross-accumulator batched folds.

        Accumulators with equal signatures share their node geometry
        and phase constant exactly, so one stacked distance/phase
        computation serves all of them (see
        :func:`repro.localization.batched.fold_blocks`).
        """
        return self._signature

    def record_block(
        self, positions: np.ndarray, channels: np.ndarray
    ) -> int:
        """Append one fully folded block to the retained history.

        Returns the grid nodes projected (the virtual work metric),
        matching what :meth:`update` reports for the same block. Inputs
        must already be canonical (see :func:`canonical_batch`). The
        batched kernel (:func:`repro.localization.batched.fold_blocks`)
        performs the same bookkeeping inline — ten thousand co-resident
        sessions mean ten thousand calls per round, so its per-block
        cost is held to plain attribute work — and emits one aggregate
        ``incremental_updates`` count per fold; the counter total is
        identical either way.
        """
        self._positions.append(positions)
        self._channels.append(channels)
        self._n_poses += len(positions)
        metrics.count("localization.sar.incremental_updates", len(positions))
        return len(positions) * self.n_nodes

    def update(self, positions: np.ndarray, channels: np.ndarray) -> int:
        """Fold a batch of poses in; returns nodes projected (work done).

        ``positions`` is (B, 2) and ``channels`` complex (B,) with
        B >= 1 — the disentangled relay-tag half-link channels. The
        whitening matches :meth:`SarGeometry.profile` exactly, so the
        accumulated heatmap equals the batch profile of the
        concatenated history (up to float round-off from the
        accumulation order).
        """
        positions, channels = canonical_batch(positions, channels)
        if len(positions) == 0:
            return 0
        weights = unit_weights(channels)
        k_factor = self.k_factor
        geometry = SarGeometry(positions, self._nodes, store_distances=False)
        for node_slice, distances_m in geometry.iter_chunks():
            phases = np.exp(1j * (k_factor * distances_m))
            phases *= weights[:, None]
            self._accumulator[node_slice] += phases.sum(axis=0)
        return self.record_block(positions, channels)

    def update_measurement(self, measurement: ThroughRelayMeasurement) -> int:
        """Fold one raw through-relay measurement in (Eq. 10 + update)."""
        channel = disentangle(measurement.h_target, measurement.h_reference)
        return self.update(
            np.asarray(measurement.position, dtype=float)[None, :],
            np.array([channel], dtype=complex),
        )

    def history(self) -> Tuple[np.ndarray, np.ndarray]:
        """The retained ``(positions (K, 2), channels (K,))`` series."""
        if not self._positions:
            return np.empty((0, 2)), np.empty((0,), dtype=complex)
        return (
            np.concatenate(self._positions, axis=0),
            np.concatenate(self._channels, axis=0),
        )

    # -- readout -----------------------------------------------------------------

    def coarse_heatmap(self) -> Heatmap:
        """``|S| / K`` over the grid — the live matched-filter map."""
        if self._n_poses == 0:
            raise InsufficientMeasurementsError(
                "no poses accumulated yet; the heatmap is undefined"
            )
        values = np.abs(self._accumulator) / self._n_poses
        return Heatmap(grid=self.grid, values=values.reshape(self.grid.shape))

    def estimate(self) -> np.ndarray:
        """Cheap running estimate: the coarse-map argmax (no fine stage)."""
        return self.coarse_heatmap().argmax_position()

    def finalize(self) -> LocalizationResult:
        """The batch-equivalent coarse-to-fine estimate over the history.

        The one-segment case of :func:`finalize_segments`: the returned
        position matches ``Localizer.locate(history, search_grid=grid)``
        run offline.
        """
        return finalize_segments([self])


# -- multi-segment (fleet handoff) combination -----------------------------------


def _check_segments(
    segments: Sequence[IncrementalSar],
) -> List[IncrementalSar]:
    populated = [s for s in segments if s.n_poses > 0]
    if not populated:
        raise InsufficientMeasurementsError(
            "no poses accumulated in any segment"
        )
    first = populated[0]
    for other in populated[1:]:
        if other.batch_signature() != first.batch_signature():
            raise LocalizationError(
                "segments must share grid and frequency to combine"
            )
    return populated


def combined_coarse(segments: Sequence[IncrementalSar]) -> Heatmap:
    """Noncoherent combination of per-segment coarse maps.

    A tag served by several relays accumulates one coherent sum *per
    relay* (each relay's constant hardware factor ``G_r`` carries an
    unknown phase, so summing complex accumulators across relays would
    mis-add phases that never belonged together — see
    :mod:`repro.localization.disentangle`). Within a segment the sum
    stays fully coherent; across segments only the magnitudes add:

        P(x, y) = sum_r |S_r(x, y)| / sum_r K_r

    which reduces *exactly* to :meth:`IncrementalSar.coarse_heatmap`
    for a single segment.
    """
    populated = _check_segments(segments)
    total = sum(s.n_poses for s in populated)
    values = np.abs(populated[0]._accumulator)
    for other in populated[1:]:
        values += np.abs(other._accumulator)
    grid = populated[0].grid
    return Heatmap(grid=grid, values=(values / total).reshape(grid.shape))


def finalize_segments(
    segments: Sequence[IncrementalSar],
) -> LocalizationResult:
    """Batch-equivalent coarse-to-fine estimate over relay segments.

    The aperture check sees the concatenated pose history, the coarse
    peak comes from :func:`combined_coarse`, and
    :func:`~repro.localization.multires.refine` weights each segment's
    fine map by its share of the poses. One segment reduces exactly to
    the single-accumulator finalize.
    """
    populated = _check_segments(segments)
    first = populated[0]
    histories = [segment.history() for segment in populated]
    _validate(
        np.concatenate([positions for positions, _ in histories]),
        np.concatenate([channels for _, channels in histories]),
        first.frequency_hz,
    )
    return refine(
        combined_coarse(populated),
        histories,
        first.frequency_hz,
        fine_resolution=SAR_DEFAULT_GRID_RESOLUTION_M,
        use_nearest_peak_rule=True,
    )
