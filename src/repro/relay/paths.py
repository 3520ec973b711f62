"""The relay's forwarding paths (paper Fig. 8).

Each direction is a downconvert -> baseband filter -> amplifier chain ->
upconvert pipeline. Two non-idealities matter to the evaluation:

* **RF feed-through**: a small fraction of the input leaks straight to
  the output at its *original* frequency, bypassing the frequency
  conversion (mixer port-to-port isolation, board coupling). This is
  what limits the intra-link isolation of Fig. 9(c)/(d).
* **Oscillator errors**: the mixers impart the LOs' CFO and phase, the
  distortion Eq. 6 describes; the mirrored architecture cancels it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import faults
from repro.dsp.amplifier import AmplifierChain
from repro.dsp.filters import Filter
from repro.dsp.mixer import downconvert, retune, upconvert
from repro.dsp.oscillator import Oscillator
from repro.dsp.signal import Signal
from repro.dsp.units import db_to_linear
from repro.errors import ConfigurationError, RelayError, RelayRebootError
from repro.obs import metrics


@dataclass(frozen=True)
class PathConfig:
    """Static parameters of one forwarding path."""

    feedthrough_db: float = 60.0
    """Conducted input-to-output leakage at the input frequency (positive dB)."""

    def __post_init__(self) -> None:
        if self.feedthrough_db <= 0:
            raise ConfigurationError("feed-through isolation must be positive dB")


class ForwardingPath:
    """One direction of the relay: mixer, filter, amplifiers, mixer.

    Parameters
    ----------
    lo_in:
        Downconversion oscillator (nominal frequency = the RF center the
        path listens at).
    baseband_filter:
        The LPF (downlink) or BPF (uplink) applied at baseband.
    amplifiers:
        The gain chain applied after filtering.
    lo_out:
        Upconversion oscillator (nominal = the RF center transmitted).
    config:
        Non-ideality parameters.
    """

    def __init__(
        self,
        lo_in: Oscillator,
        baseband_filter: Filter,
        amplifiers: AmplifierChain,
        lo_out: Oscillator,
        config: PathConfig = PathConfig(),
    ) -> None:
        if lo_in.nominal_frequency_hz == lo_out.nominal_frequency_hz:
            raise ConfigurationError(
                "in/out LOs must differ for out-of-band full duplex (§4.3)"
            )
        self.lo_in = lo_in
        self.lo_out = lo_out
        self.baseband_filter = baseband_filter
        self.amplifiers = amplifiers
        self.config = config

    @property
    def input_frequency_hz(self) -> float:
        """RF center the path receives at."""
        return self.lo_in.nominal_frequency_hz

    @property
    def output_frequency_hz(self) -> float:
        """RF center the path transmits at."""
        return self.lo_out.nominal_frequency_hz

    @property
    def gain_db(self) -> float:
        """Small-signal conversion gain of the path."""
        return self.amplifiers.total_gain_db

    def forward(self, sig: Signal) -> Signal:
        """Relay a received RF signal to the output frequency.

        The returned signal is declared at the output center and includes
        the feed-through leakage of the input at its original frequency.
        """
        if abs(sig.center_frequency_hz - self.input_frequency_hz) > sig.sample_rate / 4:
            raise RelayError(
                f"path listens at {self.input_frequency_hz / 1e6:.3f} MHz but the "
                f"signal is centered at {sig.center_frequency_hz / 1e6:.3f} MHz"
            )
        metrics.count("relay.signals_forwarded")
        collapse_db = 0.0
        if faults.watching("relay.forward"):
            if faults.rebooted("relay.forward"):
                raise RelayRebootError(
                    "relay power-cycled mid-forward; signal lost in flight"
                )
            if faults.dropped("relay.forward"):
                raise RelayError(
                    "forwarding path dropped the signal (injected fault)"
                )
            collapse_db = faults.gain_collapse_db("relay.forward")
        baseband = downconvert(sig, self.lo_in)
        filtered = self.baseband_filter.apply(baseband)
        amplified = self.amplifiers.apply(filtered)
        if collapse_db:
            amplified = amplified.scaled(
                float(np.sqrt(db_to_linear(-collapse_db)))
            )
        out = upconvert(amplified, self.lo_out)
        if sig.center_frequency_hz != out.center_frequency_hz:
            leak_amp = np.sqrt(db_to_linear(-self.config.feedthrough_db))
            leak = retune(sig, out.center_frequency_hz).scaled(leak_amp)
            out = out + leak
        return out
