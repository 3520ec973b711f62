"""Coarse-to-fine SAR search (the multi-resolution optimization the
paper's footnote 7 references).

A full fine-resolution sweep of a 30 x 40 m floor is wasteful: the
coarse stage finds the candidate region(s) at decimeter resolution, the
peak rule of §5.2 picks the candidate, and a centimeter-resolution stage
refines only around it.

:func:`refine` is that second half on its own: given any coarse map, it
picks the peak and builds the fine map. The batch search below and the
streaming finalize of :mod:`repro.localization.incremental` both end
there, so the two cannot pick peaks or refine differently; the rule's
fixed parameters (:data:`FINE_SPAN_M`, :data:`PEAK_RELATIVE_THRESHOLD`)
live here once, and both paths return :class:`LocalizationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import SAR_DEFAULT_GRID_RESOLUTION_M
from repro.errors import LocalizationError
from repro.localization.grid import Grid2D, Heatmap
from repro.obs import tracing
from repro.localization.peaks import find_peaks, select_nearest_to_trajectory
from repro.localization.sar import SarGeometry, sar_heatmap


#: Side (m) of the square fine window centered on the selected peak.
FINE_SPAN_M = 1.0

#: Fraction of the coarse map's maximum a local maximum must reach to
#: be a candidate of the §5.2 peak rule.
PEAK_RELATIVE_THRESHOLD = 0.7


@dataclass(frozen=True)
class LocalizationResult:
    """A tag location estimate plus the evidence behind it."""

    position: np.ndarray
    coarse_heatmap: Heatmap
    fine_heatmap: Heatmap
    peak_distance_to_trajectory_m: float

    def error_to(self, true_position) -> float:
        """Euclidean error against a ground-truth location."""
        return float(
            np.linalg.norm(self.position - np.asarray(true_position, dtype=float))
        )


def check_fine_resolution(fine_resolution: float, coarse_resolution: float) -> None:
    """Refuse a fine stage that is not positive or does not refine the coarse grid."""
    if not fine_resolution > 0:
        raise LocalizationError(
            f"fine resolution must be positive, got {fine_resolution}"
        )
    if fine_resolution > coarse_resolution:
        raise LocalizationError(
            "fine resolution must refine the coarse grid "
            f"({fine_resolution} > {coarse_resolution})"
        )


def multires_locate(
    positions: np.ndarray,
    channels: np.ndarray,
    search_grid: Grid2D,
    frequency_hz: float,
    fine_resolution: float = SAR_DEFAULT_GRID_RESOLUTION_M,
    use_nearest_peak_rule: bool = True,
    coarse_geometry: Optional[SarGeometry] = None,
) -> LocalizationResult:
    """Locate a tag with a coarse sweep plus a fine refinement.

    Parameters
    ----------
    positions, channels:
        The disentangled measurement series (from
        :func:`repro.localization.disentangle.disentangle_series`).
    search_grid:
        Coarse grid covering the candidate area.
    fine_resolution:
        Inner-stage resolution in the :data:`FINE_SPAN_M` window around
        the selected peak.
    use_nearest_peak_rule:
        True applies §5.2's nearest-to-trajectory selection; False takes
        the global maximum (the ablation of the multipath rule).
    coarse_geometry:
        Precomputed pose->grid distances for the coarse stage (from
        :func:`repro.localization.sar.grid_geometry` on the same
        trajectory and grid), reusable across matched-filter
        frequencies and the RSSI baseline.
    """
    check_fine_resolution(fine_resolution, search_grid.resolution)
    with tracing.span("localize.coarse", points=search_grid.n_points):
        coarse = sar_heatmap(
            positions, channels, search_grid, frequency_hz, geometry=coarse_geometry
        )
    return refine(
        coarse,
        [(positions, channels)],
        frequency_hz,
        fine_resolution=fine_resolution,
        use_nearest_peak_rule=use_nearest_peak_rule,
    )


def refine(
    coarse: Heatmap,
    segments: Sequence[Tuple[np.ndarray, np.ndarray]],
    frequency_hz: float,
    fine_resolution: float,
    use_nearest_peak_rule: bool,
) -> LocalizationResult:
    """Select the §5.2 peak on ``coarse`` and refine the map around it.

    ``segments`` holds one ``(positions, channels)`` series per coherent
    segment: a single flight is one segment, and a tag that several
    fleet relays served has one per relay. The peak rule measures
    distance to all of their poses. The fine map combines the segments
    noncoherently, each weighted by its share of the ``K`` poses:

        P_fine(x, y) = sum_r P_r(x, y) * K_r / K

    For one segment the weight is exactly 1.0, so the fine map is that
    segment's :func:`~repro.localization.sar.sar_heatmap` bit for bit.
    """
    trajectory = np.concatenate([positions for positions, _ in segments])
    with tracing.span("localize.peaks"):
        peaks = find_peaks(coarse, relative_threshold=PEAK_RELATIVE_THRESHOLD)
        if use_nearest_peak_rule:
            chosen = select_nearest_to_trajectory(peaks, trajectory)
        else:
            chosen = peaks[0]  # strongest
    with tracing.span("localize.fine"):
        fine_grid = coarse.grid.refined_around(
            chosen.position, span=FINE_SPAN_M, resolution=fine_resolution
        )
        values = np.zeros(fine_grid.shape)
        for positions, channels in segments:
            segment_map = sar_heatmap(positions, channels, fine_grid, frequency_hz)
            values += segment_map.values * (len(positions) / len(trajectory))
        fine = Heatmap(grid=fine_grid, values=values)
        estimate = fine.argmax_position()
    return LocalizationResult(
        position=estimate,
        coarse_heatmap=coarse,
        fine_heatmap=fine,
        peak_distance_to_trajectory_m=chosen.distance_to_trajectory_m,
    )
