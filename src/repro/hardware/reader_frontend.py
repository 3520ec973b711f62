"""USRP-class reader front end.

The paper's reader is built on a USRP N210 (§6.3) running the Gen2
implementation of Kargas et al. [26]. The front end matters for
localization in one specific way: TX and RX share one LO, so the
receiver is *coherent* — downconverting a backscattered reply with the
same oscillator that generated the carrier preserves the propagation
phase, which the localization algorithm then consumes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import READER_NOISE_FIGURE_DB, READER_TX_POWER_DBM
from repro.dsp.mixer import downconvert, upconvert
from repro.dsp.noise import thermal_noise
from repro.dsp.signal import Signal
from repro.dsp.units import amplitude_for_power_dbm
from repro.errors import ConfigurationError
from repro.hardware.synthesizer import Synthesizer


class ReaderFrontend:
    """TX/RX chains of a coherent SDR reader.

    Parameters
    ----------
    synthesizer:
        The shared TX/RX LO. Its programmed frequency is the carrier.
    tx_power_dbm:
        Conducted transmit power.
    noise_figure_db:
        Receive-chain noise figure.
    rng:
        Noise randomness; required unless noise is disabled.
    """

    def __init__(
        self,
        synthesizer: Synthesizer,
        tx_power_dbm: float = READER_TX_POWER_DBM,
        noise_figure_db: float = READER_NOISE_FIGURE_DB,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if tx_power_dbm > 36.0:
            raise ConfigurationError(
                f"tx power {tx_power_dbm} dBm exceeds the FCC EIRP headroom"
            )
        self.synthesizer = synthesizer
        self.tx_power_dbm = float(tx_power_dbm)
        self.noise_figure_db = float(noise_figure_db)
        self.rng = rng

    @property
    def carrier_frequency_hz(self) -> float:
        """The RF carrier the reader transmits (including crystal error)."""
        return self.synthesizer.oscillator.actual_frequency_hz

    def transmit(self, baseband: Signal) -> Signal:
        """Upconvert a unit-scale baseband waveform at the TX power.

        The baseband waveform (PIE command or all-ones CW) is scaled so a
        unit-envelope region transmits at ``tx_power_dbm``, then mixed up
        with the shared LO.
        """
        scaled = baseband.scaled(amplitude_for_power_dbm(self.tx_power_dbm))
        return upconvert(scaled, self.synthesizer.oscillator)

    def continuous_wave(
        self, duration: float, sample_rate: float, start_time: float = 0.0
    ) -> Signal:
        """The unmodulated carrier transmitted while tags reply."""
        n = int(round(duration * sample_rate))
        baseband = Signal(
            np.ones(n, dtype=np.complex128), sample_rate, 0.0, start_time
        )
        return self.transmit(baseband)

    def receive(self, rf: Signal, add_noise: bool = True) -> Signal:
        """Coherently downconvert an RF signal to baseband, adding noise."""
        baseband = downconvert(rf, self.synthesizer.oscillator)
        if add_noise:
            if self.rng is None:
                raise ConfigurationError(
                    "an rng is required to generate receiver noise"
                )
            baseband = thermal_noise(baseband, self.noise_figure_db, self.rng)
        return baseband
