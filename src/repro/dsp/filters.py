"""Baseband analog filters (modeled as digital Butterworth IIR filters).

The relay's inter-link isolation rests on two filters (paper §6.1):

* a **low-pass filter** at 100 kHz on the downlink path, which passes the
  reader query and rejects the relayed tag response, and
* a **band-pass filter** centered at 500 kHz on the uplink path, which
  passes the tag response and rejects the relayed query.

Filters are applied causally (``scipy.signal.lfilter``) so group delay and
phase response are preserved, like the analog originals. The resulting
constant hardware phase is exactly what the relay-embedded reference RFID
factors out during localization (paper §5.1).
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sps

from repro.dsp.signal import Signal
from repro.errors import ConfigurationError, SampleRateError


class Filter:
    """Base class: an IIR filter bound to a specific sample rate."""

    def __init__(self, sample_rate: float) -> None:
        if sample_rate <= 0:
            raise ConfigurationError(f"sample_rate must be positive, got {sample_rate}")
        self.sample_rate = float(sample_rate)
        self._sos: np.ndarray | None = None

    # -- application -----------------------------------------------------------

    def apply(self, sig: Signal) -> Signal:
        """Filter a signal, preserving its center frequency and time base."""
        if not np.isclose(sig.sample_rate, self.sample_rate, rtol=1e-9):
            raise SampleRateError(
                f"filter designed for {self.sample_rate} S/s, signal is "
                f"{sig.sample_rate} S/s"
            )
        filtered = sps.sosfilt(self._sos, sig.samples)
        return sig.with_samples(filtered)

    def __call__(self, sig: Signal) -> Signal:
        return self.apply(sig)

    # -- analysis ----------------------------------------------------------------

    def response_at(self, baseband_frequency_hz: float) -> complex:
        """Complex frequency response at a baseband frequency (Hz).

        Negative frequencies are meaningful for complex envelopes.
        """
        w = 2.0 * np.pi * baseband_frequency_hz / self.sample_rate
        _, h = sps.sosfreqz(self._sos, worN=[w])
        return complex(h[0])

    def attenuation_db(self, baseband_frequency_hz: float) -> float:
        """Power attenuation (positive dB) at a baseband frequency."""
        magnitude = abs(self.response_at(baseband_frequency_hz))
        if magnitude == 0.0:
            return float("inf")
        return float(-20.0 * np.log10(magnitude))


class LowPassFilter(Filter):
    """Butterworth low-pass filter on a complex envelope.

    The filter is applied to the complex baseband directly; with a real
    low-pass prototype, both positive and negative envelope frequencies
    beyond the cutoff are rejected, like the analog I/Q filter pair on the
    relay PCB.
    """

    def __init__(self, cutoff_hz: float, sample_rate: float, order: int = 6) -> None:
        super().__init__(sample_rate)
        if not 0 < cutoff_hz < sample_rate / 2:
            raise ConfigurationError(
                f"cutoff {cutoff_hz} Hz must lie in (0, Nyquist={sample_rate / 2})"
            )
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        self.cutoff_hz = float(cutoff_hz)
        self.order = int(order)
        self._sos = sps.butter(
            order, cutoff_hz, btype="low", fs=sample_rate, output="sos"
        )


class BandPassFilter(Filter):
    """Butterworth band-pass filter on a complex envelope.

    The passband ``[center - half_bandwidth, center + half_bandwidth]`` is
    one-sided in envelope frequency. The relay's uplink filter passes the
    tag's upper backscatter sideband at +BLF; a hardware implementation
    passes both sidebands, but only one is needed to forward the response,
    and a single-sideband model keeps the inter-link leakage accounting
    identical.
    """

    def __init__(
        self,
        center_hz: float,
        half_bandwidth_hz: float,
        sample_rate: float,
        order: int = 4,
    ) -> None:
        super().__init__(sample_rate)
        low = center_hz - half_bandwidth_hz
        high = center_hz + half_bandwidth_hz
        if half_bandwidth_hz <= 0:
            raise ConfigurationError("half_bandwidth must be positive")
        if not 0 < low < high < sample_rate / 2:
            raise ConfigurationError(
                f"passband [{low}, {high}] Hz must lie in (0, Nyquist)"
            )
        if order < 1:
            raise ConfigurationError(f"order must be >= 1, got {order}")
        self.center_hz = float(center_hz)
        self.half_bandwidth_hz = float(half_bandwidth_hz)
        self.order = int(order)
        self._sos = sps.butter(
            order, [low, high], btype="band", fs=sample_rate, output="sos"
        )
