"""The end-to-end Localizer facade.

Ties the pipeline together: measurements -> disentanglement -> coarse-
to-fine SAR with the multipath peak rule -> position estimate. This is
the object the examples and the Fig. 12-14 benchmarks drive.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import SAR_DEFAULT_GRID_RESOLUTION_M
from repro.errors import LocalizationError
from repro.localization.disentangle import disentangle_series
from repro.localization.grid import Grid2D
from repro.localization.measurement import ThroughRelayMeasurement
from repro.localization.multires import LocalizationResult, multires_locate
from repro.localization.rssi import rssi_locate
from repro.localization.sar import SarGeometry, check_frequency_hz, grid_geometry
from repro.obs import tracing

#: How far beyond the flight path the tag may lie. The relay-tag link
#: is power-limited to a few meters, which conveniently bounds the
#: search.
SEARCH_MARGIN_M = 6.0


class Localizer:
    """Through-relay SAR localization with RFly's defaults.

    Parameters
    ----------
    frequency_hz:
        Frequency used in the matched filter. The paper notes using the
        reader's f is fine since (f - f2)/f < 0.01 (§5.2); pass the
        exact f2 for the purist variant.
    coarse_resolution, fine_resolution:
        Multi-resolution stage resolutions.
    use_nearest_peak_rule:
        §5.2's multipath rule (True) vs plain argmax (False).
    """

    def __init__(
        self,
        frequency_hz: float,
        coarse_resolution: float = 0.10,
        fine_resolution: float = SAR_DEFAULT_GRID_RESOLUTION_M,
        use_nearest_peak_rule: bool = True,
    ) -> None:
        check_frequency_hz(frequency_hz)
        if coarse_resolution <= 0 or fine_resolution <= 0:
            raise LocalizationError("resolutions must be positive")
        self.frequency_hz = float(frequency_hz)
        self.coarse_resolution = float(coarse_resolution)
        self.fine_resolution = float(fine_resolution)
        self.use_nearest_peak_rule = bool(use_nearest_peak_rule)

    def _grid_around(self, positions: np.ndarray) -> Grid2D:
        return Grid2D.around_trajectory(
            positions, margin=SEARCH_MARGIN_M, resolution=self.coarse_resolution
        )

    def locate(
        self,
        measurements: Sequence[ThroughRelayMeasurement],
        search_grid: Optional[Grid2D] = None,
    ) -> LocalizationResult:
        """Estimate one tag's 2-D position from a flight's measurements."""
        return self._locate(measurements, search_grid)

    def _locate(
        self,
        measurements: Sequence[ThroughRelayMeasurement],
        search_grid: Optional[Grid2D],
        coarse_geometry: Optional[SarGeometry] = None,
    ) -> LocalizationResult:
        with tracing.span("localize.locate", poses=len(measurements)):
            with tracing.span("localize.disentangle"):
                positions, channels = disentangle_series(measurements)
            return multires_locate(
                positions,
                channels,
                search_grid or self._grid_around(positions),
                self.frequency_hz,
                fine_resolution=self.fine_resolution,
                use_nearest_peak_rule=self.use_nearest_peak_rule,
                coarse_geometry=coarse_geometry,
            )

    def locate_with_baseline(
        self,
        measurements: Sequence[ThroughRelayMeasurement],
        calibration_gain: float,
        search_grid: Optional[Grid2D] = None,
    ) -> "Tuple[LocalizationResult, np.ndarray]":
        """SAR estimate plus the RSSI baseline (§7.3), sharing one geometry.

        The Fig. 13/14 sweeps score both localizers on every trial;
        disentangling once and reusing the pose->grid distance tensor
        between the SAR coarse stage and the RSSI multilateration
        roughly halves the per-trial geometry work.
        """
        positions, channels = disentangle_series(measurements)
        grid = search_grid or self._grid_around(positions)
        geometry = grid_geometry(positions, grid)
        sar_result = self._locate(measurements, grid, coarse_geometry=geometry)
        rssi_estimate, _ = rssi_locate(
            positions,
            channels,
            grid,
            self.frequency_hz,
            calibration_gain,
            geometry=geometry,
        )
        return sar_result, rssi_estimate
