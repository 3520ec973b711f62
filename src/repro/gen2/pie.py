"""Reader-to-tag PIE (pulse-interval encoding) modulation.

Gen2 readers talk to tags with DSB-ASK + PIE: the continuous wave is
briefly attenuated at the end of every symbol, and the bit value is
carried by the symbol *length* (data-1 is 1.5-2x longer than data-0,
whose length is called Tari). A Query is preceded by a preamble
(delimiter, data-0, RTcal, TRcal); other commands by a frame-sync
(delimiter, data-0, RTcal). TRcal communicates the backscatter link
frequency the tag must reply at: BLF = DR / TRcal.

The narrow (~125 kHz) spectrum of this waveform versus the tag's
~500 kHz-offset response is the guard-band that RFly's relay filters
exploit (paper Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.constants import (
    GEN2_BLF_DEFAULT,
    GEN2_TARI_DEFAULT,
    GEN2_TARI_MAX,
    GEN2_TARI_MIN,
)
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError, EncodingError
from repro.gen2.bitops import Bits, validate_bits
from repro.obs import metrics

DELIMITER_SECONDS = 12.5e-6
DR_64_OVER_3 = 64.0 / 3.0
DR_8 = 8.0


@dataclass(frozen=True)
class ReaderParams:
    """Reader link parameters: symbol timing and modulation depth.

    ``blf`` is the backscatter link frequency the reader asks tags to use;
    it determines TRcal through the divide ratio ``dr``.
    """

    tari: float = GEN2_TARI_DEFAULT
    data1_factor: float = 2.0  # data-1 length as a multiple of Tari (1.5-2)
    pw_factor: float = 0.5  # low-pulse width as a fraction of Tari
    modulation_depth: float = 0.9
    dr: float = DR_64_OVER_3
    blf: float = GEN2_BLF_DEFAULT
    edge_smoothing_seconds: float = 0.0
    """Envelope rise/fall time. Real readers shape the ASK edges to meet
    the regulatory ~125 kHz mask (paper Fig. 4); 0 disables shaping."""

    def __post_init__(self) -> None:
        if not GEN2_TARI_MIN <= self.tari <= GEN2_TARI_MAX:
            raise ConfigurationError(
                f"Tari {self.tari * 1e6:.2f} us outside the Gen2 range "
                f"[{GEN2_TARI_MIN * 1e6}, {GEN2_TARI_MAX * 1e6}] us"
            )
        if not 1.5 <= self.data1_factor <= 2.0:
            raise ConfigurationError(
                f"data-1 length must be 1.5-2.0 Tari, got {self.data1_factor}"
            )
        if not 0.0 < self.modulation_depth <= 1.0:
            raise ConfigurationError(
                f"modulation depth must be in (0, 1], got {self.modulation_depth}"
            )
        if self.dr not in (DR_64_OVER_3, DR_8):
            raise ConfigurationError(f"DR must be 64/3 or 8, got {self.dr}")
        if self.blf <= 0:
            raise ConfigurationError(f"BLF must be positive, got {self.blf}")
        if self.edge_smoothing_seconds < 0:
            raise ConfigurationError("edge smoothing must be >= 0")
        if self.edge_smoothing_seconds > self.pw:
            raise ConfigurationError(
                "edge smoothing longer than the low pulse would erase it"
            )
        if not 1.1 * self.rtcal <= self.trcal <= 3.0 * self.rtcal:
            raise ConfigurationError(
                f"TRcal {self.trcal * 1e6:.1f} us outside [1.1, 3] x RTcal "
                f"({self.rtcal * 1e6:.1f} us) — choose a compatible Tari/BLF"
            )

    @property
    def data0(self) -> float:
        """Data-0 symbol length (= Tari), seconds."""
        return self.tari

    @property
    def data1(self) -> float:
        """Data-1 symbol length, seconds."""
        return self.data1_factor * self.tari

    @property
    def pw(self) -> float:
        """Low-pulse width at the end of each symbol, seconds."""
        return self.pw_factor * self.tari

    @property
    def rtcal(self) -> float:
        """Reader-to-tag calibration symbol: data-0 + data-1 lengths."""
        return self.data0 + self.data1

    @property
    def trcal(self) -> float:
        """Tag-to-reader calibration symbol: sets the BLF as DR / TRcal."""
        return self.dr / self.blf


class PIEEncoder:
    """Encode command bits into a PIE complex-envelope waveform."""

    def __init__(self, params: ReaderParams, sample_rate: float) -> None:
        if sample_rate < 8.0 / params.tari:
            raise ConfigurationError(
                f"sample rate {sample_rate} too low to represent Tari "
                f"{params.tari}"
            )
        self.params = params
        self.sample_rate = float(sample_rate)
        self._low_level = 1.0 - params.modulation_depth

    def _samples(self, duration: float, level: float) -> np.ndarray:
        n = max(1, int(round(duration * self.sample_rate)))
        return np.full(n, level, dtype=np.complex128)

    def _symbol(self, total: float) -> np.ndarray:
        high = self._samples(total - self.params.pw, 1.0)
        low = self._samples(self.params.pw, self._low_level)
        return np.concatenate([high, low])

    def _delimiter(self) -> np.ndarray:
        return self._samples(DELIMITER_SECONDS, self._low_level)

    def encode(
        self,
        bits: Sequence[int],
        preamble: bool,
        center_frequency_hz: float = 0.0,
        start_time: float = 0.0,
    ) -> Signal:
        """Encode ``bits`` with a Query preamble or a frame-sync.

        Parameters
        ----------
        bits:
            Command bits, MSB first.
        preamble:
            True for the full Query preamble (with TRcal), False for the
            frame-sync used by every other command.
        """
        bits = validate_bits(bits)
        if not bits:
            raise EncodingError("cannot encode an empty command")
        p = self.params
        pieces: List[np.ndarray] = [self._delimiter(), self._symbol(p.data0)]
        pieces.append(self._symbol(p.rtcal))
        if preamble:
            pieces.append(self._symbol(p.trcal))
        for bit in bits:
            pieces.append(self._symbol(p.data1 if bit else p.data0))
        # Return to continuous wave after the command, as a real reader
        # does; this also gives the decoder the final symbol's edge.
        pieces.append(self._samples(p.tari, 1.0))
        samples = np.concatenate(pieces)
        if p.edge_smoothing_seconds > 0:
            window_len = max(int(round(p.edge_smoothing_seconds * self.sample_rate)), 2)
            window = np.hanning(window_len + 2)[1:-1]
            window = window / np.sum(window)
            # Symmetric smoothing keeps the threshold crossings centered,
            # so PIE interval decoding is unaffected.
            samples = np.convolve(samples, window, mode="same")
        metrics.count("gen2.samples_synthesized", len(samples))
        return Signal(samples, self.sample_rate, center_frequency_hz, start_time)


class PIEDecoder:
    """Decode a PIE waveform back into bits (what a tag's front end does).

    The decoder is calibration-driven, like a real tag: it measures RTcal
    from the waveform itself and classifies each symbol against the
    RTcal/2 pivot, so it works for any Tari the reader chose.
    """

    def __init__(self, sample_rate: float) -> None:
        if sample_rate <= 0:
            raise ConfigurationError("sample rate must be positive")
        self.sample_rate = float(sample_rate)

    def _edges(self, envelope: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Indices of falling and rising threshold crossings."""
        lo, hi = float(np.min(envelope)), float(np.max(envelope))
        if hi - lo < 1e-12:
            raise EncodingError("waveform has no modulation to decode")
        threshold = 0.5 * (lo + hi)
        above = envelope > threshold
        changes = np.flatnonzero(np.diff(above.astype(np.int8)))
        falling = changes[~above[changes + 1]] + 1
        rising = changes[above[changes + 1]] + 1
        return falling, rising

    def decode(self, sig: Signal) -> Tuple[Bits, bool, float]:
        """Decode a command waveform.

        Returns
        -------
        (bits, had_preamble, trcal_seconds)
            The command bits, whether a Query preamble (TRcal) was
            present, and the measured TRcal (0.0 when absent).
        """
        envelope = np.abs(sig.samples)
        falling, rising = self._edges(envelope)
        if len(rising) < 3 or len(falling) < 3:
            raise EncodingError("too few symbol edges for a Gen2 command")
        # The delimiter is the first low region; symbols start at its
        # rising edge. Symbol i spans rising[i] .. rising[i+1].
        durations = np.diff(rising) / self.sample_rate
        if len(durations) < 2:
            raise EncodingError("waveform ends before RTcal")
        data0 = durations[0]
        rtcal = durations[1]
        if not 2.4 * data0 <= rtcal <= 3.2 * data0:
            raise EncodingError(
                f"RTcal {rtcal * 1e6:.2f} us inconsistent with data-0 "
                f"{data0 * 1e6:.2f} us"
            )
        pivot = rtcal / 2.0
        index = 2
        trcal = 0.0
        had_preamble = False
        if index < len(durations) and durations[index] > 1.05 * rtcal:
            trcal = float(durations[index])
            had_preamble = True
            index += 1
        bits = tuple(int(d > pivot) for d in durations[index:])
        if not bits:
            raise EncodingError("command carried no data bits")
        return bits, had_preamble, trcal
