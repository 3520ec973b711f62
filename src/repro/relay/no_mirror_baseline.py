"""The no-mirror relay baseline of paper Fig. 10.

Structurally identical to :class:`~repro.relay.mirrored.MirroredRelay`
— same filters, same frequency plan — but each of the four mixers is
driven by its *own* synthesizer. The up/down conversions then no longer
cancel: the round trip picks up the CFO and phase-offset rotation of
Eq. 6, randomizing the phase the reader measures and making SAR
localization impossible. The paper isolates exactly this effect by
comparing against the mirrored architecture in Fig. 10.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import DEFAULT_HARDWARE_SEED
from repro.dsp.amplifier import AmplifierChain, PowerAmplifier, VariableGainAmplifier
from repro.dsp.filters import BandPassFilter, LowPassFilter
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError
from repro.hardware.synthesizer import Synthesizer
from repro.relay.mirrored import RelayConfig
from repro.relay.paths import ForwardingPath, PathConfig
from repro.relay.self_interference import AntennaCoupling


class NoMirrorRelay:
    """A full-duplex relay with four independent synthesizers."""

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
        # Reproducible by default: synthesizer realizations come from the
        # documented fixed seed unless the caller injects an rng (R301).
        rng = rng if rng is not None else np.random.default_rng(DEFAULT_HARDWARE_SEED)

        make = lambda freq: Synthesizer.random(
            freq,
            rng,
            max_ppm=config.synth_ppm_error,
            phase_jitter_std_rad=config.phase_jitter_std_rad,
        )
        # Four synthesizers: nothing cancels.
        self._dl_down = make(self.reader_frequency_hz)
        self._dl_up = make(self.shifted_frequency_hz)
        self._ul_down = make(self.shifted_frequency_hz)
        self._ul_up = make(self.reader_frequency_hz)

        fs = config.sample_rate
        self.downlink = ForwardingPath(
            lo_in=self._dl_down.oscillator,
            baseband_filter=LowPassFilter(config.lpf_cutoff_hz, fs, config.lpf_order),
            amplifiers=AmplifierChain(
                [
                    VariableGainAmplifier(
                        config.downlink_gain_db, min_gain_db=-10.0, max_gain_db=45.0
                    ),
                    PowerAmplifier(config.pa_gain_db, p1db_dbm=config.pa_p1db_dbm),
                ]
            ),
            lo_out=self._dl_up.oscillator,
            config=PathConfig(feedthrough_db=config.downlink_feedthrough_db),
        )
        self.uplink = ForwardingPath(
            lo_in=self._ul_down.oscillator,
            baseband_filter=BandPassFilter(
                config.bpf_center_hz, config.bpf_half_bandwidth_hz, fs, config.bpf_order
            ),
            amplifiers=AmplifierChain(
                [
                    VariableGainAmplifier(
                        config.uplink_gain_db, min_gain_db=-10.0, max_gain_db=45.0
                    )
                ]
            ),
            lo_out=self._ul_up.oscillator,
            config=PathConfig(feedthrough_db=config.uplink_feedthrough_db),
        )

    def forward_downlink(self, sig: Signal) -> Signal:
        """Relay a reader query/CW toward the tags (f1 -> f2)."""
        return self.downlink.forward(sig)

    def forward_uplink(self, sig: Signal) -> Signal:
        """Relay a tag response toward the reader (f2 -> f1)."""
        return self.uplink.forward(sig)
