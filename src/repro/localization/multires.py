"""Coarse-to-fine SAR search (the multi-resolution optimization the
paper's footnote 7 references).

A full fine-resolution sweep of a 30 x 40 m floor is wasteful: the
coarse stage finds the candidate region(s) at decimeter resolution, the
peak rule of §5.2 picks the candidate, and a centimeter-resolution stage
refines only around it.

:func:`refine` is that second half on its own: given any coarse map, it
picks the peak and builds the fine map. The batch search below and the
streaming finalize of :mod:`repro.localization.incremental` both end
there, so the two cannot pick peaks or refine differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import LocalizationError
from repro.localization.grid import Grid2D, Heatmap
from repro.obs import tracing
from repro.localization.peaks import (
    Peak,
    find_peaks,
    select_nearest_to_trajectory,
)
from repro.localization.sar import SarGeometry, sar_heatmap


@dataclass(frozen=True)
class MultiresResult:
    """Output of the coarse-to-fine search."""

    position: np.ndarray
    coarse_heatmap: Heatmap
    fine_heatmap: Heatmap
    selected_peak: Peak


def multires_locate(
    positions: np.ndarray,
    channels: np.ndarray,
    search_grid: Grid2D,
    frequency_hz: float,
    fine_resolution: float = 0.02,
    fine_span: float = 1.0,
    relative_threshold: float = 0.7,
    use_nearest_peak_rule: bool = True,
    coarse_geometry: Optional[SarGeometry] = None,
) -> MultiresResult:
    """Locate a tag with a coarse sweep plus a fine refinement.

    Parameters
    ----------
    positions, channels:
        The disentangled measurement series (from
        :func:`repro.localization.disentangle.disentangle_series`).
    search_grid:
        Coarse grid covering the candidate area.
    fine_resolution, fine_span:
        Inner-stage resolution and window around the selected peak.
    use_nearest_peak_rule:
        True applies §5.2's nearest-to-trajectory selection; False takes
        the global maximum (the ablation of the multipath rule).
    coarse_geometry:
        Precomputed pose->grid distances for the coarse stage (from
        :func:`repro.localization.sar.grid_geometry` on the same
        trajectory and grid), reusable across matched-filter
        frequencies and the RSSI baseline.
    """
    if fine_resolution <= 0 or fine_span <= 0:
        raise LocalizationError("fine stage parameters must be positive")
    if fine_resolution > search_grid.resolution:
        raise LocalizationError(
            "fine resolution must refine the coarse grid "
            f"({fine_resolution} > {search_grid.resolution})"
        )
    with tracing.span("localize.coarse", points=search_grid.n_points):
        coarse = sar_heatmap(
            positions, channels, search_grid, frequency_hz, geometry=coarse_geometry
        )
    return refine(
        coarse,
        [(positions, channels)],
        frequency_hz,
        fine_resolution=fine_resolution,
        fine_span=fine_span,
        relative_threshold=relative_threshold,
        use_nearest_peak_rule=use_nearest_peak_rule,
    )


def refine(
    coarse: Heatmap,
    segments: Sequence[Tuple[np.ndarray, np.ndarray]],
    frequency_hz: float,
    fine_resolution: float,
    fine_span: float,
    relative_threshold: float,
    use_nearest_peak_rule: bool,
) -> MultiresResult:
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
        peaks = find_peaks(coarse, relative_threshold=relative_threshold)
        if use_nearest_peak_rule:
            chosen = select_nearest_to_trajectory(peaks, trajectory)
        else:
            chosen = peaks[0]  # strongest
    with tracing.span("localize.fine"):
        fine_grid = coarse.grid.refined_around(
            chosen.position, span=fine_span, resolution=fine_resolution
        )
        values = np.zeros(fine_grid.shape)
        for positions, channels in segments:
            segment_map = sar_heatmap(positions, channels, fine_grid, frequency_hz)
            values += segment_map.values * (len(positions) / len(trajectory))
        fine = Heatmap(grid=fine_grid, values=values)
        estimate = fine.argmax_position()
    return MultiresResult(
        position=estimate,
        coarse_heatmap=coarse,
        fine_heatmap=fine,
        selected_peak=chosen,
    )
