"""Tag-to-reader backscatter encodings: FM0 and Miller-modulated subcarrier.

A powered tag replies by switching its antenna impedance between a
reflective and a non-reflective state — ON-OFF keying of the reader's
continuous wave. The baseband reflection coefficient is therefore a
two-level waveform; Gen2 specifies its shape as FM0 (biphase space) or
Miller-M with a subcarrier of M cycles per symbol.

The key spectral fact RFly's relay exploits: both encodings concentrate
the reply's energy around the backscatter link frequency (BLF), hundreds
of kHz away from the carrier, while the reader's query sits within
~125 kHz of it (paper Fig. 4).

Encoding conventions
--------------------
Waveform levels are the tag's reflection states, 1.0 (reflective) and
0.0 (non-reflective). FM0 obeys the Gen2 rules: the level inverts at
every symbol boundary, and data-0 carries an extra mid-symbol inversion.
The FM0 preamble is the spec's ``1 0 1 0 v 1`` pattern, where ``v`` is a
symbol-long violation (no boundary inversion), optionally preceded by a
12-zero pilot when TRext is set. Each reply ends with the spec's "dummy
data-1" terminator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.constants import GEN2_BLF_DEFAULT, GEN2_BLF_MAX, GEN2_BLF_MIN
from repro.dsp.signal import Signal
from repro.errors import ConfigurationError, EncodingError
from repro.gen2.bitops import Bits, validate_bits
from repro.obs import metrics

PILOT_ZEROS = 12
PREAMBLE_BITS = 6  # 1 0 1 0 v 1


@dataclass(frozen=True)
class TagParams:
    """Tag reply parameters: link frequency, encoding, pilot tone."""

    blf: float = GEN2_BLF_DEFAULT
    miller_m: int = 1  # 1 = FM0; 2/4/8 = Miller subcarrier
    trext: bool = False  # long pilot tone

    def __post_init__(self) -> None:
        if not GEN2_BLF_MIN <= self.blf <= GEN2_BLF_MAX:
            raise ConfigurationError(
                f"BLF {self.blf / 1e3:.0f} kHz outside the Gen2 range "
                f"[{GEN2_BLF_MIN / 1e3:.0f}, {GEN2_BLF_MAX / 1e3:.0f}] kHz"
            )
        if self.miller_m not in (1, 2, 4, 8):
            raise ConfigurationError(f"Miller M must be 1, 2, 4 or 8, got {self.miller_m}")

    @property
    def symbol_period(self) -> float:
        """Duration of one data symbol, seconds."""
        return self.miller_m / self.blf


def _halves_to_signal(
    halves: Sequence[int],
    blf: float,
    sample_rate: float,
    center_frequency_hz: float,
    start_time: float,
) -> Signal:
    """Render half-symbol logic levels (0/1) into a sampled waveform."""
    half = 0.5 / blf
    boundaries = (np.arange(len(halves) + 1) * half * sample_rate).round().astype(int)
    samples = np.zeros(boundaries[-1], dtype=np.complex128)
    for level, lo, hi in zip(halves, boundaries[:-1], boundaries[1:]):
        samples[lo:hi] = float(level)
    metrics.count("gen2.samples_synthesized", len(samples))
    return Signal(samples, sample_rate, center_frequency_hz, start_time)


class FM0Encoder:
    """FM0 (biphase-space) encoder producing reflection waveforms."""

    def __init__(self, params: TagParams, sample_rate: float) -> None:
        if params.miller_m != 1:
            raise ConfigurationError("FM0Encoder requires miller_m == 1")
        if sample_rate < 4.0 * params.blf:
            raise ConfigurationError(
                f"sample rate {sample_rate} too low for BLF {params.blf}"
            )
        self.params = params
        self.sample_rate = float(sample_rate)

    def encode_halves(self, bits: Sequence[int]) -> List[int]:
        """Half-symbol levels for preamble + bits + dummy-1 terminator."""
        bits = validate_bits(bits)
        halves: List[int] = []
        level = 1  # reflective
        if self.params.trext:
            for _ in range(PILOT_ZEROS):
                level = 1 - level  # boundary inversion
                halves.extend([level, 1 - level])  # data-0: mid inversion
                level = 1 - level
        # Preamble 1 0 1 0 v 1.
        for bit in (1, 0, 1, 0):
            level = 1 - level
            if bit:
                halves.extend([level, level])
            else:
                halves.extend([level, 1 - level])
                level = 1 - level
        # Violation: hold the current level a full symbol with NO boundary
        # inversion — impossible for data, so it uniquely marks the frame.
        halves.extend([level, level])
        # Final preamble data-1.
        level = 1 - level
        halves.extend([level, level])
        # Data bits.
        for bit in bits:
            level = 1 - level
            if bit:
                halves.extend([level, level])
            else:
                halves.extend([level, 1 - level])
                level = 1 - level
        # Dummy data-1 terminator.
        level = 1 - level
        halves.extend([level, level])
        return halves

    def encode(
        self,
        bits: Sequence[int],
        center_frequency_hz: float = 0.0,
        start_time: float = 0.0,
    ) -> Signal:
        """Encode ``bits`` into a sampled reflection waveform."""
        halves = self.encode_halves(bits)
        return _halves_to_signal(
            halves, self.params.blf, self.sample_rate, center_frequency_hz, start_time
        )

    def duration_of(self, n_bits: int) -> float:
        """Airtime of a reply with ``n_bits`` payload bits, seconds."""
        pilot = PILOT_ZEROS if self.params.trext else 0
        symbols = pilot + PREAMBLE_BITS + n_bits + 1
        return symbols / self.params.blf

    def preamble_reference(self) -> np.ndarray:
        """The pilot+preamble rendered as ±1 samples (for receiver sync).

        Data-independent by construction, so a reader can correlate
        against it to time-align a reply before decoding.
        """
        pilot = PILOT_ZEROS if self.params.trext else 0
        n_halves = 2 * (pilot + PREAMBLE_BITS)
        halves = self.encode_halves(())[:n_halves]
        sig = _halves_to_signal(halves, self.params.blf, self.sample_rate, 0.0, 0.0)
        return np.real(sig.samples) * 2.0 - 1.0


class FM0Decoder:
    """Correlation-based FM0 decoder.

    Operates on real-valued reflection waveforms (complex inputs are
    projected; see :mod:`repro.reader.channel_estimation` for carrier
    phase recovery). The preamble violation anchors frame alignment.
    """

    def __init__(self, params: TagParams, sample_rate: float) -> None:
        self.params = params
        self.sample_rate = float(sample_rate)
        self._encoder = FM0Encoder(params, sample_rate)

    def _half_levels(self, samples: np.ndarray, n_halves: int, offset: int) -> np.ndarray:
        """Average the waveform over each half-symbol window."""
        half = 0.5 / self.params.blf * self.sample_rate
        levels = np.empty(n_halves)
        for i in range(n_halves):
            lo = offset + int(round(i * half))
            hi = offset + int(round((i + 1) * half))
            hi = min(hi, len(samples))
            if hi <= lo:
                raise EncodingError("waveform too short for the expected reply")
            levels[i] = float(np.mean(samples[lo:hi]))
        return levels

    def decode(self, sig: Signal, n_bits: int, offset: int = 0) -> Bits:
        """Decode ``n_bits`` payload bits from a reply waveform.

        Parameters
        ----------
        sig:
            Reflection waveform (real levels around {0, 1}, possibly
            scaled/offset — the decoder normalizes).
        n_bits:
            Expected payload length (the reader always knows it: 16 for
            RN16, PC+EPC+CRC for an EPC reply).
        offset:
            Sample index where the reply starts.
        """
        samples = np.real(sig.samples)
        pilot = PILOT_ZEROS if self.params.trext else 0
        n_halves = 2 * (pilot + PREAMBLE_BITS + n_bits + 1)
        levels = self._half_levels(samples, n_halves, offset)
        # Normalize to ±1 around the midpoint.
        mid = 0.5 * (np.max(levels) + np.min(levels))
        spread = np.max(levels) - np.min(levels)
        if spread < 1e-12:
            raise EncodingError("no backscatter modulation present")
        norm = np.sign(levels - mid)
        norm[norm == 0] = 1
        reference = np.asarray(self._encoder.encode_halves(tuple([0] * n_bits)))
        reference = np.sign(reference * 2 - 1)
        # Resolve the polarity ambiguity using the preamble halves.
        n_pre = 2 * (pilot + PREAMBLE_BITS)
        agreement = float(np.mean(norm[:n_pre] == reference[:n_pre]))
        if agreement < 0.5:
            norm = -norm
            agreement = 1.0 - agreement
        if agreement < 0.9:
            raise EncodingError(
                f"FM0 preamble correlation too weak ({agreement:.2f})"
            )
        bits = []
        for i in range(n_bits):
            first = norm[n_pre + 2 * i]
            second = norm[n_pre + 2 * i + 1]
            bits.append(1 if first == second else 0)
        return tuple(bits)


class MillerEncoder:
    """Miller-M encoder: baseband Miller times an M-cycle subcarrier.

    Baseband Miller rules (Gen2): a data-1 carries a mid-symbol phase
    inversion; the phase also inverts at the boundary between two
    successive data-0s. The baseband is then multiplied by a square
    subcarrier with M cycles per symbol. The preamble is four data-0
    symbols followed by ``010111`` (spec pattern), abbreviated here to the
    four zeros plus a data-1 marker, mirrored by the decoder.
    """

    PREAMBLE = (0, 1, 0, 1, 1, 1)

    def __init__(self, params: TagParams, sample_rate: float) -> None:
        if params.miller_m not in (2, 4, 8):
            raise ConfigurationError("MillerEncoder requires miller_m in {2, 4, 8}")
        samples_per_half_cycle = sample_rate / (2.0 * params.blf)
        if samples_per_half_cycle < 2.0:
            raise ConfigurationError(
                f"sample rate {sample_rate} too low for BLF {params.blf}"
            )
        self.params = params
        self.sample_rate = float(sample_rate)

    def _baseband_phases(self, bits: Sequence[int]) -> List[int]:
        """Per-half-symbol baseband phase (0/1) following the Miller rules."""
        phases: List[int] = []
        phase = 0
        previous = None
        for bit in bits:
            if previous == 0 and bit == 0:
                phase ^= 1  # inversion between successive zeros
            if bit:
                phases.extend([phase, phase ^ 1])
                phase ^= 1  # mid-symbol inversion for data-1
            else:
                phases.extend([phase, phase])
            previous = bit
        return phases

    def frame_bits(self, bits: Sequence[int]) -> Bits:
        """Pilot + preamble + payload + dummy-1, as baseband Miller bits."""
        bits = validate_bits(bits)
        pilot = (0,) * (16 if self.params.trext else 4)
        return pilot + self.PREAMBLE + bits + (1,)

    def encode(
        self,
        bits: Sequence[int],
        center_frequency_hz: float = 0.0,
        start_time: float = 0.0,
    ) -> Signal:
        """Encode payload bits into the subcarrier reflection waveform."""
        framed = self.frame_bits(bits)
        phases = self._baseband_phases(framed)
        m = self.params.miller_m
        # Each half-symbol contains M/2 subcarrier cycles = M half-cycles.
        halves: List[int] = []
        for phase in phases:
            for k in range(m):
                halves.append((k + phase) % 2)
        # Subcarrier half-cycle duration is 1/(2 BLF); reuse the renderer
        # by treating the subcarrier half-cycles as "halves" at BLF.
        return _halves_to_signal(
            halves, self.params.blf, self.sample_rate, center_frequency_hz, start_time
        )

    def duration_of(self, n_bits: int) -> float:
        """Airtime of a reply with ``n_bits`` payload bits, seconds."""
        framed = (16 if self.params.trext else 4) + len(self.PREAMBLE) + n_bits + 1
        return framed * self.params.miller_m / self.params.blf

    def preamble_reference(self) -> np.ndarray:
        """The pilot+preamble rendered as ±1 samples (for receiver sync)."""
        prefix = self.frame_bits(())[:-1]  # drop the dummy terminator
        phases = self._baseband_phases(prefix)
        m = self.params.miller_m
        halves = [(k + phase) % 2 for phase in phases for k in range(m)]
        sig = _halves_to_signal(halves, self.params.blf, self.sample_rate, 0.0, 0.0)
        return np.real(sig.samples) * 2.0 - 1.0


class MillerDecoder:
    """Correlation-based Miller-M decoder (mirror of the encoder)."""

    def __init__(self, params: TagParams, sample_rate: float) -> None:
        self.params = params
        self.sample_rate = float(sample_rate)
        self._encoder = MillerEncoder(params, sample_rate)

    def decode(self, sig: Signal, n_bits: int, offset: int = 0) -> Bits:
        """Decode ``n_bits`` payload bits from a Miller reply waveform."""
        samples = np.real(sig.samples)
        framed_len = len(self._encoder.frame_bits(tuple([0] * n_bits)))
        m = self.params.miller_m
        n_halves = framed_len * 2 * m
        # Average each subcarrier half-cycle (duration 1 / (2 BLF)).
        half_duration = self.sample_rate / (2.0 * self.params.blf)
        levels = np.empty(n_halves)
        for i in range(n_halves):
            lo = offset + int(round(i * half_duration))
            hi = offset + int(round((i + 1) * half_duration))
            hi = min(hi, len(samples))
            if hi <= lo:
                raise EncodingError("waveform too short for the expected reply")
            levels[i] = float(np.mean(samples[lo:hi]))
        mid = 0.5 * (np.max(levels) + np.min(levels))
        if np.max(levels) - np.min(levels) < 1e-12:
            raise EncodingError("no backscatter modulation present")
        norm = np.sign(levels - mid)
        norm[norm == 0] = 1

        def volts(bits_guess: Bits) -> np.ndarray:
            """Re-encode a bit hypothesis as subcarrier half-cycles."""
            phases = self._encoder._baseband_phases(
                self._encoder.frame_bits(bits_guess)
            )
            out = []
            for phase in phases:
                for k in range(m):
                    out.append(1.0 if (k + phase) % 2 else -1.0)
            return np.asarray(out)

        # Decode symbol by symbol against both bit hypotheses, tracking
        # the running phase exactly as the encoder does.
        framed_prefix = self._encoder.frame_bits(())[:-1]  # pilot+preamble
        reference = volts(tuple([0] * n_bits))
        n_pre_halves = len(framed_prefix) * 2 * m
        agreement = float(np.mean(norm[:n_pre_halves] == reference[:n_pre_halves]))
        if agreement < 0.5:
            norm = -norm
            agreement = 1.0 - agreement
        if agreement < 0.9:
            raise EncodingError(
                f"Miller preamble correlation too weak ({agreement:.2f})"
            )
        # Greedy per-bit decision: for each bit position, compare the
        # received halves with re-encodings of (decoded so far + 0/1).
        decoded: List[int] = []
        for i in range(n_bits):
            scores = []
            for candidate in (0, 1):
                trial = tuple(decoded) + (candidate,) + tuple([0] * (n_bits - i - 1))
                ref = volts(trial)
                lo = n_pre_halves + i * 2 * m
                hi = lo + 2 * m
                scores.append(float(np.mean(norm[lo:hi] == ref[lo:hi])))
            decoded.append(int(scores[1] > scores[0]))
        return tuple(decoded)
