"""Path-loss models.

Free-space (Friis) loss drives the paper's key design equation (Eq. 3-4):
the relay stays stable only while the reader-relay path loss exceeds...
rather, while the isolation I exceeds the path loss L = 20 log10(4 pi R /
lambda), which ties achievable range directly to isolation — 30 dB of
isolation buys 0.75 m, 80 dB buys 238 m.
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import LinkBudgetError


def _validate(distance_m: float, frequency_hz: float) -> None:
    if distance_m <= 0:
        raise LinkBudgetError(f"distance must be positive, got {distance_m}")
    if frequency_hz <= 0:
        raise LinkBudgetError(f"frequency must be positive, got {frequency_hz}")


def free_space_path_loss_db(distance_m: float, frequency_hz: float) -> float:
    """Friis free-space path loss ``20 log10(4 pi d / lambda)`` in dB.

    This is exactly the L of the paper's Eq. 3.
    """
    _validate(distance_m, frequency_hz)
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return float(20.0 * np.log10(4.0 * np.pi * distance_m / wavelength))


def free_space_amplitude(distance_m: float, frequency_hz: float) -> float:
    """Linear amplitude gain ``lambda / (4 pi d)`` of a free-space path."""
    _validate(distance_m, frequency_hz)
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return float(wavelength / (4.0 * np.pi * distance_m))


def free_space_range_for_loss(loss_db: float, frequency_hz: float) -> float:
    """Distance at which free-space loss reaches ``loss_db`` (paper Eq. 4).

    ``R = (lambda / 4 pi) * 10^(L/20)`` — with L = isolation this is the
    maximum stable relay-reader range.
    """
    if frequency_hz <= 0:
        raise LinkBudgetError(f"frequency must be positive, got {frequency_hz}")
    wavelength = SPEED_OF_LIGHT / frequency_hz
    return float(wavelength / (4.0 * np.pi) * 10.0 ** (loss_db / 20.0))


def log_distance_path_loss_db(
    distance_m: float,
    frequency_hz: float,
    exponent: float = 2.0,
    reference_m: float = 1.0,
) -> float:
    """Log-distance model: free-space to ``reference_m``, then exponent n.

    Indoor cluttered environments typically show n in [2.5, 4]; the
    paper's non-line-of-sight read-rate falloff (Fig. 11) corresponds to
    the upper part of that range plus wall losses.
    """
    _validate(distance_m, frequency_hz)
    if exponent <= 0:
        raise LinkBudgetError(f"path-loss exponent must be positive: {exponent}")
    if reference_m <= 0:
        raise LinkBudgetError(f"reference distance must be positive: {reference_m}")
    reference_loss = free_space_path_loss_db(reference_m, frequency_hz)
    if distance_m <= reference_m:
        return free_space_path_loss_db(distance_m, frequency_hz)
    return float(
        reference_loss + 10.0 * exponent * np.log10(distance_m / reference_m)
    )
