"""The through-relay phase measurement model (paper Eq. 7-9).

At each drone pose, the reader's channel estimate for a tag factors as

    h = A_rt(f) * B_rt(f2) * G

where ``A_rt`` is the reader->relay *round-trip* half-link at the
reader's frequency f, ``B_rt`` the relay->tag round-trip half-link at
the shifted frequency f2, and ``G`` a constant relay hardware factor
(gain and filter phase — constant because the mirrored architecture
cancels everything time-varying; see §4.3 and Fig. 10).

Each half-link is the superposition of its multipath rays; by channel
reciprocity the round trip is the square of the one-way sum, which
expands into exactly the double sum over path pairs of Eq. 8. The
relay-embedded reference RFID measures ``A_rt * C`` with constant C, so
a division isolates ``B_rt`` (Eq. 10) — see
:mod:`repro.localization.disentangle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.channel.environment import Environment
from repro.constants import RELAY_FREQUENCY_SHIFT_HZ, UHF_CENTER_FREQUENCY
from repro.dsp.units import db_to_linear
from repro.errors import ConfigurationError
from repro.mobility.trajectory import TrajectorySample


@dataclass(frozen=True)
class ThroughRelayMeasurement:
    """One reader observation at one drone pose.

    ``h_target`` and ``h_reference`` are the reader's channel estimates
    for the environment tag and the relay-embedded reference RFID;
    ``position`` is the drone pose the SAR solver will use (in practice
    the OptiTrack observation of it). ``relay`` names which fleet relay
    carried the observation: traffic workloads always name one
    (``relay-00`` for a scenario without a fleet block), while
    measurements taken straight from a :class:`MeasurementModel`, as
    the batch trials do, leave it ``""``.
    """

    position: np.ndarray
    h_target: complex
    h_reference: complex
    snr_db: float
    time: float = 0.0
    relay: str = ""


class MeasurementModel:
    """Synthesizes through-relay measurements along a trajectory.

    Parameters
    ----------
    environment:
        Propagation environment (walls produce the multipath of Fig. 5).
    reader_position:
        The stationary reader's location.
    reader_frequency_hz:
        The reader's carrier f.
    frequency_shift_hz:
        The relay's shift; f2 = f + shift. The paper keeps
        (f - f2)/f < 0.01 so the reader may use f in Eq. 12 (§5.2).
    reference_gain:
        The constant C of the reference RFID's channel.
    relay_gain_db:
        Constant relay hardware gain folded into every target channel.
    """

    def __init__(
        self,
        environment: Optional[Environment] = None,
        reader_position=(0.0, 0.0),
        reader_frequency_hz: float = UHF_CENTER_FREQUENCY,
        frequency_shift_hz: float = RELAY_FREQUENCY_SHIFT_HZ,
        reference_gain: complex = 0.05 * np.exp(1j * 0.7),
        relay_gain_db: float = 45.0,
    ) -> None:
        if reader_frequency_hz <= 0:
            raise ConfigurationError("reader frequency must be positive")
        if reference_gain == 0:
            raise ConfigurationError("reference gain must be nonzero")
        self.environment = environment or Environment.free_space()
        self.reader_position = np.asarray(reader_position, dtype=float)
        self.f = float(reader_frequency_hz)
        self.f2 = float(reader_frequency_hz + frequency_shift_hz)
        self.reference_gain = complex(reference_gain)
        self.relay_gain = float(np.sqrt(db_to_linear(relay_gain_db)))

    # -- half-links ------------------------------------------------------------

    def reader_relay_round_trip(self, drone_position) -> complex:
        """A_rt: reader->relay one-way channel squared (reciprocity)."""
        one_way = self.environment.channel(
            self.reader_position, drone_position, self.f
        )
        return complex(one_way * one_way)

    def relay_tag_round_trip(self, drone_position, tag_position) -> complex:
        """B_rt: relay->tag one-way channel squared at f2."""
        one_way = self.environment.channel(drone_position, tag_position, self.f2)
        return complex(one_way * one_way)

    # -- measurements -----------------------------------------------------------

    #: The reference RFID sits centimeters from the relay's antennas, so
    #: its reply is received this much cleaner than an environment tag's.
    REFERENCE_SNR_ADVANTAGE_DB = 10.0

    def measure(
        self,
        drone_position,
        tag_position,
        rng: Optional[np.random.Generator] = None,
        snr_db: float = 30.0,
        time: float = 0.0,
    ) -> ThroughRelayMeasurement:
        """One through-relay observation at one drone pose.

        Noise is applied to both channel estimates as circular complex
        Gaussian scaled to the requested estimate SNR (the reference
        RFID's estimate is cleaner by its proximity advantage).
        """
        a_rt = self.reader_relay_round_trip(drone_position)
        b_rt = self.relay_tag_round_trip(drone_position, tag_position)
        h_target = a_rt * b_rt * self.relay_gain
        h_reference = a_rt * self.reference_gain
        if rng is not None and np.isfinite(snr_db):
            scale = np.sqrt(db_to_linear(-snr_db) / 2.0)
            h_target += (
                abs(h_target)
                * scale
                * (rng.standard_normal() + 1j * rng.standard_normal())
            )
            ref_scale = np.sqrt(
                db_to_linear(-(snr_db + self.REFERENCE_SNR_ADVANTAGE_DB)) / 2.0
            )
            h_reference += (
                abs(h_reference)
                * ref_scale
                * (rng.standard_normal() + 1j * rng.standard_normal())
            )
        return ThroughRelayMeasurement(
            position=np.asarray(drone_position, dtype=float),
            h_target=complex(h_target),
            h_reference=complex(h_reference),
            snr_db=float(snr_db),
            time=float(time),
        )

    def measure_along(
        self,
        samples: Sequence[TrajectorySample],
        tag_position,
        rng: Optional[np.random.Generator] = None,
        snr_db: float = 30.0,
    ) -> List[ThroughRelayMeasurement]:
        """Observations at every pose of a flight."""
        return [
            self.measure(s.position, tag_position, rng, snr_db, s.time)
            for s in samples
        ]
