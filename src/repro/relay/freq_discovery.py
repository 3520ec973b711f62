"""Reader center-frequency discovery (paper §4.2, Eq. 5).

A reader may transmit on any of the 50 FCC channels in 902-928 MHz, and
the relay must find that channel to downconvert and filter at baseband.
Instead of digitizing the whole 26 MHz band and running a Fourier
transform, RFly sweeps candidate frequencies over contiguous 1-ms chunks
of the incoming wave — a streaming emulation of the transform:

    f_hat = argmax_f | sum_t x(t) exp(-j 2 pi f t) |

The full sweep takes ~20 ms, after which the relay locks on. Under FCC
rules the reader then hops every <=0.4 s along a pseudo-random pattern,
which the paper's relay follows once one dwell is identified (§4.2
footnote 3); following the hops is not modeled here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.constants import (
    RELAY_FREQ_SWEEP_TOTAL_SECONDS,
    UHF_BAND_START,
    UHF_CHANNEL_SPACING,
    UHF_NUM_CHANNELS,
)
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError, FrequencyLockError


def ism_channels() -> np.ndarray:
    """Center frequencies of the 50 FCC hopping channels."""
    first = UHF_BAND_START + UHF_CHANNEL_SPACING / 2.0
    return first + UHF_CHANNEL_SPACING * np.arange(UHF_NUM_CHANNELS)


class FrequencyDiscovery:
    """Streaming sweep over candidate reader channels.

    Parameters
    ----------
    candidates:
        Candidate center frequencies (defaults to the 50 ISM channels).
    total_sweep_seconds:
        Wall-clock budget for the whole sweep; each candidate gets an
        equal contiguous chunk of the incoming wave (the paper's chunks
        are ~1 ms and the sweep ~20 ms).
    min_snr_db:
        Peak-to-median ratio of correlation magnitudes below which no
        lock is declared (pure noise in the band).
    """

    def __init__(
        self,
        candidates: Optional[Sequence[float]] = None,
        total_sweep_seconds: float = RELAY_FREQ_SWEEP_TOTAL_SECONDS,
        min_peak_ratio: float = 3.0,
    ) -> None:
        self.candidates = np.asarray(
            ism_channels() if candidates is None else candidates, dtype=float
        )
        if len(self.candidates) == 0:
            raise ConfigurationError("need at least one candidate frequency")
        if total_sweep_seconds <= 0:
            raise ConfigurationError("sweep budget must be positive")
        if min_peak_ratio <= 1.0:
            raise ConfigurationError("peak ratio threshold must exceed 1")
        self.total_sweep_seconds = float(total_sweep_seconds)
        self.min_peak_ratio = float(min_peak_ratio)

    @property
    def chunk_seconds(self) -> float:
        """Per-candidate observation window."""
        return self.total_sweep_seconds / len(self.candidates)

    def correlations(self, sig: Signal) -> np.ndarray:
        """|correlation| of each candidate against its streaming chunk.

        Each candidate is evaluated on its own contiguous chunk — the
        streaming behaviour of the hardware sweep, which never stores
        the wide-band signal.
        """
        chunk_len = int(self.chunk_seconds * sig.sample_rate)
        if chunk_len < 8:
            raise ConfigurationError(
                "chunks too short: raise the sweep budget or the sample rate"
            )
        needed = chunk_len * len(self.candidates)
        if len(sig) < needed:
            raise FrequencyLockError(
                f"sweep needs {needed} samples, signal has {len(sig)}"
            )
        magnitudes = np.empty(len(self.candidates))
        for i, candidate in enumerate(self.candidates):
            chunk = sig.sliced(i * chunk_len, (i + 1) * chunk_len)
            offset = candidate - sig.center_frequency_hz
            reference = np.exp(-2j * np.pi * offset * chunk.times)
            magnitudes[i] = abs(np.mean(chunk.samples * reference))
        return magnitudes

    def discover(self, sig: Signal) -> float:
        """Run the sweep; return the locked reader frequency.

        Raises
        ------
        FrequencyLockError
            When no candidate stands out of the noise floor.
        """
        magnitudes = self.correlations(sig)
        best = int(np.argmax(magnitudes))
        floor = float(np.median(magnitudes))
        if floor > 0 and magnitudes[best] / floor < self.min_peak_ratio:
            raise FrequencyLockError(
                "no reader carrier found: peak correlation "
                f"{magnitudes[best]:.3e} vs floor {floor:.3e}"
            )
        return float(self.candidates[best])
