"""The mirrored relay architecture (paper §4.3, Fig. 8).

Two synthesizers drive four mixers:

* synthesizer A runs at the *discovered reader frequency* f1. It
  downconverts on the downlink and upconverts on the uplink.
* synthesizer B runs at the shifted frequency f2 = f1 + shift. It
  upconverts on the downlink and downconverts on the uplink.

Because each synthesizer appears once as a down- and once as an
up-converter across the round trip, its CFO and phase offset cancel:
the relay only adds a *constant* hardware phase (filter group delay),
which the relay-embedded reference RFID factors out during localization
(§5.1). Inter-link isolation comes from the baseband LPF/BPF exploiting
the Gen2 guard-band (Fig. 4); intra-link isolation comes from the
frequency shift (out-of-band full duplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import (
    DEFAULT_HARDWARE_SEED,
    RELAY_BPF_CENTER_HZ,
    RELAY_BPF_HALF_BANDWIDTH_HZ,
    RELAY_FREQUENCY_SHIFT_HZ,
    RELAY_LPF_CUTOFF_HZ,
    RELAY_PA_P1DB_DBM,
)
from repro.dsp.amplifier import AmplifierChain, PowerAmplifier, VariableGainAmplifier
from repro.dsp.filters import BandPassFilter, LowPassFilter
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError
from repro.hardware.synthesizer import Synthesizer
from repro.relay.paths import ForwardingPath, PathConfig
from repro.relay.self_interference import AntennaCoupling


@dataclass(frozen=True)
class RelayConfig:
    """Tunable parameters of the relay build.

    Defaults reproduce the paper's PCB: 100 kHz LPF, 500 kHz BPF, 1 MHz
    frequency shift, and a 29 dBm-P1dB downlink PA.
    """

    sample_rate: float = 4.0e6
    frequency_shift_hz: float = RELAY_FREQUENCY_SHIFT_HZ
    lpf_cutoff_hz: float = RELAY_LPF_CUTOFF_HZ
    lpf_order: int = 6
    bpf_center_hz: float = RELAY_BPF_CENTER_HZ
    bpf_half_bandwidth_hz: float = RELAY_BPF_HALF_BANDWIDTH_HZ
    bpf_order: int = 3
    downlink_gain_db: float = 25.0
    uplink_gain_db: float = 20.0
    pa_gain_db: float = 10.0
    pa_p1db_dbm: float = RELAY_PA_P1DB_DBM
    downlink_feedthrough_db: float = 18.0
    uplink_feedthrough_db: float = 20.0
    synth_ppm_error: float = 1.0
    phase_jitter_std_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency_shift_hz <= 0:
            raise ConfigurationError("frequency shift must be positive")
        guard = self.bpf_center_hz + self.bpf_half_bandwidth_hz
        if self.frequency_shift_hz <= guard:
            raise ConfigurationError(
                "frequency shift must exceed the filter bandwidths so no "
                "signal feeds back within a path (§6.1): shift "
                f"{self.frequency_shift_hz} <= {guard}"
            )
        if self.sample_rate < 2.0 * (self.frequency_shift_hz + guard):
            raise ConfigurationError(
                "sample rate too low to represent the shifted band"
            )


class MirroredRelay:
    """RFly's relay: both forwarding paths plus shared synthesizers.

    Parameters
    ----------
    reader_frequency_hz:
        The (discovered) reader carrier the relay locks to.
    config:
        Hardware build parameters.
    rng:
        Randomness for synthesizer errors (and phase jitter, if any).
    coupling:
        Antenna coupling figures used by the isolation accounting.
    """

    def __init__(
        self,
        reader_frequency_hz: float,
        config: RelayConfig = RelayConfig(),
        rng: Optional[np.random.Generator] = None,
        coupling: Optional[AntennaCoupling] = None,
    ) -> None:
        if reader_frequency_hz <= 0:
            raise ConfigurationError("reader frequency must be positive")
        self.config = config
        self.reader_frequency_hz = float(reader_frequency_hz)
        self.shifted_frequency_hz = self.reader_frequency_hz + config.frequency_shift_hz
        self.coupling = coupling or AntennaCoupling()
        # Reproducible by default: synthesizer CFO/phase realizations come
        # from the documented fixed seed unless the caller injects an rng.
        rng = rng if rng is not None else np.random.default_rng(DEFAULT_HARDWARE_SEED)

        # The two shared synthesizers of the mirrored architecture.
        self.synth_reader = Synthesizer.random(
            self.reader_frequency_hz,
            rng,
            max_ppm=config.synth_ppm_error,
            phase_jitter_std_rad=config.phase_jitter_std_rad,
        )
        self.synth_shifted = Synthesizer.random(
            self.shifted_frequency_hz,
            rng,
            max_ppm=config.synth_ppm_error,
            phase_jitter_std_rad=config.phase_jitter_std_rad,
        )

        fs = config.sample_rate
        downlink_amps = AmplifierChain(
            [
                VariableGainAmplifier(
                    config.downlink_gain_db, min_gain_db=-10.0, max_gain_db=45.0
                ),
                PowerAmplifier(config.pa_gain_db, p1db_dbm=config.pa_p1db_dbm),
            ]
        )
        # Most of the uplink gain sits after the bandpass filter (§6.1:
        # avoids saturating the uplink input with the relayed query).
        uplink_amps = AmplifierChain(
            [
                VariableGainAmplifier(
                    config.uplink_gain_db, min_gain_db=-10.0, max_gain_db=45.0
                )
            ]
        )
        self.downlink = ForwardingPath(
            lo_in=self.synth_reader.oscillator,
            baseband_filter=LowPassFilter(config.lpf_cutoff_hz, fs, config.lpf_order),
            amplifiers=downlink_amps,
            lo_out=self.synth_shifted.oscillator,
            config=PathConfig(feedthrough_db=config.downlink_feedthrough_db),
        )
        self.uplink = ForwardingPath(
            lo_in=self.synth_shifted.oscillator,
            baseband_filter=BandPassFilter(
                config.bpf_center_hz, config.bpf_half_bandwidth_hz, fs, config.bpf_order
            ),
            amplifiers=uplink_amps,
            lo_out=self.synth_reader.oscillator,
            config=PathConfig(feedthrough_db=config.uplink_feedthrough_db),
        )

    # -- forwarding ---------------------------------------------------------------

    def forward_downlink(self, sig: Signal) -> Signal:
        """Relay a reader query/CW toward the tags (f1 -> f2)."""
        return self.downlink.forward(sig)

    def forward_uplink(self, sig: Signal) -> Signal:
        """Relay a tag response toward the reader (f2 -> f1)."""
        return self.uplink.forward(sig)

    # -- introspection -------------------------------------------------------

    @property
    def downlink_gain_db(self) -> float:
        """Small-signal downlink conversion gain."""
        return self.downlink.gain_db

    @property
    def uplink_gain_db(self) -> float:
        """Small-signal uplink conversion gain."""
        return self.uplink.gain_db
