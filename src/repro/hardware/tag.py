"""Passive RFID tag hardware model.

A passive tag has no battery: it harvests power from the incident
downlink wave. Two conditions gate its operation (paper §2):

* **power-up**: the incident power must exceed the chip sensitivity
  (about -15 dBm for the Alien Squiggle class of tags), and
* **decode**: the downlink modulation depth must be large enough for the
  envelope detector to recover the reader's PIE symbols.

When powered, the tag backscatters by switching its input impedance,
reflecting a fraction of the incident wave (the modulation/backscatter
loss). This is what bounds the relay-to-tag half-link to a few meters no
matter how good the relay's isolation is — the range decoupling argument
at the heart of the paper (§4.3, footnote 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import (
    TAG_ANTENNA_GAIN_DBI,
    TAG_MIN_MODULATION_DEPTH,
    TAG_MODULATION_LOSS_DB,
    TAG_SENSITIVITY_DBM,
)
from repro.dsp.signal import Signal
from repro.dsp.units import db_to_linear
from repro.errors import ConfigurationError, TagNotPoweredError
from repro.gen2.bitops import bits_from_int, validate_bits
from repro.gen2.tag_state import Gen2Tag


class TagPowerState(enum.Enum):
    """Why a tag is (or is not) operational."""

    POWERED = "powered"
    INSUFFICIENT_POWER = "insufficient_power"
    INSUFFICIENT_MODULATION = "insufficient_modulation"


@dataclass
class PassiveTag:
    """A passive UHF tag: harvesting rules + protocol engine + position.

    Parameters
    ----------
    epc:
        96-bit EPC (bit tuple or integer).
    position:
        2-D coordinates in the simulation world.
    rng:
        Randomness for the Gen2 slot draws.
    sensitivity_dbm:
        Minimum harvested power to operate.
    """

    epc: object
    position: Sequence[float]
    rng: np.random.Generator
    sensitivity_dbm: float = TAG_SENSITIVITY_DBM
    modulation_loss_db: float = TAG_MODULATION_LOSS_DB
    min_modulation_depth: float = TAG_MIN_MODULATION_DEPTH
    antenna_gain_dbi: float = TAG_ANTENNA_GAIN_DBI

    def __post_init__(self) -> None:
        if isinstance(self.epc, (int, np.integer)):
            self.epc = bits_from_int(int(self.epc), 96)
        else:
            self.epc = validate_bits(self.epc)
        self.position = np.asarray(self.position, dtype=float)
        if not 0.0 < self.min_modulation_depth <= 1.0:
            raise ConfigurationError(
                f"modulation depth threshold must be in (0, 1], got "
                f"{self.min_modulation_depth}"
            )
        self.protocol = Gen2Tag(self.epc, self.rng)

    # -- power ------------------------------------------------------------------

    def power_state(
        self, incident_power_dbm: float, modulation_depth: float = 1.0
    ) -> TagPowerState:
        """Can the tag operate on this downlink?"""
        if incident_power_dbm < self.sensitivity_dbm:
            return TagPowerState.INSUFFICIENT_POWER
        if modulation_depth < self.min_modulation_depth:
            return TagPowerState.INSUFFICIENT_MODULATION
        return TagPowerState.POWERED

    def is_powered(
        self, incident_power_dbm: float, modulation_depth: float = 1.0
    ) -> bool:
        """True when both the power and modulation-depth gates pass."""
        return (
            self.power_state(incident_power_dbm, modulation_depth)
            == TagPowerState.POWERED
        )

    # -- backscatter ---------------------------------------------------------------

    @property
    def backscatter_gain_db(self) -> float:
        """Power "gain" of the reflection: negative (a loss)."""
        return -self.modulation_loss_db

    def backscattered_power_dbm(self, incident_power_dbm: float) -> float:
        """Reflected power for a given incident power.

        Raises
        ------
        TagNotPoweredError
            When the incident power is below the chip sensitivity.
        """
        if incident_power_dbm < self.sensitivity_dbm:
            raise TagNotPoweredError(
                f"incident {incident_power_dbm:.1f} dBm below sensitivity "
                f"{self.sensitivity_dbm:.1f} dBm"
            )
        return incident_power_dbm - self.modulation_loss_db

    def modulate(self, carrier: Signal, reflection_waveform: Signal) -> Signal:
        """Impose an ON-OFF reflection waveform on an incident carrier.

        ``reflection_waveform`` holds the FM0/Miller levels in {0, 1}
        (see :mod:`repro.gen2.backscatter`); the reflected signal is the
        element-wise product scaled by the backscatter loss.
        """
        n = min(len(carrier), len(reflection_waveform))
        amplitude = np.sqrt(db_to_linear(self.backscatter_gain_db))
        product = (
            carrier.samples[:n] * reflection_waveform.samples[:n] * amplitude
        )
        return Signal(
            product, carrier.sample_rate, carrier.center_frequency_hz, carrier.start_time
        )

    # -- identity ---------------------------------------------------------------

    @property
    def epc_int(self) -> int:
        """The EPC as an integer (convenient dictionary key)."""
        return self.protocol.epc_int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PassiveTag(epc={self.epc_int:#x}, position={self.position.tolist()})"
