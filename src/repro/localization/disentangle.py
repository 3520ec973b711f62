"""Phase disentanglement via the relay-embedded reference RFID (Eq. 10).

The reader's channel for an environment tag entangles two half-links;
dividing by the reference RFID's channel — which consists *entirely* of
the reader-relay half-link times a constant — leaves the relay-tag
half-link alone:

    h_tilde = h_target / h_reference = B_rt(f2) * G / C

The residual constant ``G / C`` does not vary as the drone flies, so it
drops out of the antenna-array equations (paper §5.1, footnote 6).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import InsufficientMeasurementsError, LocalizationError
from repro.localization.measurement import ThroughRelayMeasurement

_MIN_REFERENCE_MAGNITUDE = 1e-30


def disentangle(h_target: complex, h_reference: complex) -> complex:
    """Isolate the relay-tag half-link of one measurement (Eq. 10)."""
    if abs(h_reference) < _MIN_REFERENCE_MAGNITUDE:
        raise LocalizationError(
            "reference channel is zero: the relay-embedded RFID was not "
            "decoded (the drone is out of the reader's radio range)"
        )
    return complex(h_target / h_reference)


def disentangle_series(
    measurements: Sequence[ThroughRelayMeasurement],
) -> Tuple[np.ndarray, np.ndarray]:
    """Disentangle a whole flight's measurements.

    Returns
    -------
    (positions, channels)
        ``positions`` is (K, 2); ``channels`` is the complex (K,) array
        of isolated relay-tag half-link channels, ready for the SAR
        matched filter.

    Raises
    ------
    InsufficientMeasurementsError
        With fewer than two poses there is no aperture to synthesize.
    """
    if len(measurements) < 2:
        raise InsufficientMeasurementsError(
            f"need at least 2 measurements, got {len(measurements)}"
        )
    positions = np.stack([m.position for m in measurements])
    channels = np.array(
        [disentangle(m.h_target, m.h_reference) for m in measurements]
    )
    return positions, channels
