"""Complex channel estimation from backscattered replies.

State-of-the-art RFID localization operates on the *phase* of the
received tag response (paper §2). The reader obtains it by coherent
matched filtering: the received baseband during a tag reply is

    y(t) = DC + h * m(t) + noise

where DC collects the continuous-wave leak and all static reflections,
``m(t)`` is the tag's known ON-OFF reflection waveform, and ``h`` is the
complex round-trip channel the localizer wants. Removing the mean and
projecting onto the (mean-removed) expected waveform yields the
least-squares estimate of ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dsp.signal import Signal
from repro.errors import EncodingError, SignalError
from repro.gen2.backscatter import (
    FM0Decoder,
    FM0Encoder,
    MillerDecoder,
    MillerEncoder,
    TagParams,
)
from repro.gen2.bitops import Bits
from repro.dsp.units import linear_to_db


def codec_for(
    params: TagParams, sample_rate: float
) -> "Tuple[FM0Encoder | MillerEncoder, FM0Decoder | MillerDecoder]":
    """The (encoder, decoder) pair matching the tag's reply encoding.

    FM0 for M=1, Miller-M otherwise. Through the relay the reader asks
    for Miller (Query's M field): the subcarrier concentrates the reply
    within the relay's band-pass filter, whereas FM0's spectrum extends
    down to BLF/2 and would be distorted by the filter skirt.
    """
    if params.miller_m == 1:
        return FM0Encoder(params, sample_rate), FM0Decoder(params, sample_rate)
    return MillerEncoder(params, sample_rate), MillerDecoder(params, sample_rate)


@dataclass(frozen=True)
class ChannelEstimate:
    """A complex channel measurement for one decoded reply."""

    h: complex
    snr_db: float
    bits: Bits

    @property
    def phase_rad(self) -> float:
        """Phase in (-pi, pi] — the localization observable."""
        return float(np.angle(self.h))

    @property
    def magnitude(self) -> float:
        """|h| — the RSSI observable used by the baseline of §7.3."""
        return float(abs(self.h))


def project_to_real(samples: np.ndarray) -> Tuple[np.ndarray, complex]:
    """Project complex two-level samples onto their principal axis.

    A backscatter reply after DC removal lies (up to noise) on a line
    through the origin in the complex plane with direction ``h``. The
    principal axis is recovered from the second moment ``E[y^2]``, whose
    angle is twice the channel phase. Returns the real projection and
    the unit rotation used (phase ambiguity of pi remains; the FM0
    preamble resolves it downstream).
    """
    if len(samples) == 0:
        raise SignalError("cannot project an empty sample vector")
    second_moment = np.mean(samples**2)
    axis_phase = 0.5 * np.angle(second_moment)
    rotation = np.exp(-1j * axis_phase)
    return np.real(samples * rotation), complex(rotation)


def align_to_preamble(
    sig: Signal, params: TagParams, offset: int, slack: int
) -> int:
    """Refine a reply's start index by preamble correlation.

    Filter group delay (notably the relay's band-pass filter) shifts a
    reply by several samples; a real reader time-aligns by correlating
    against the data-independent pilot+preamble. Returns the offset in
    ``[offset, offset + slack]`` with the strongest correlation.
    """
    if slack < 0:
        raise SignalError("alignment slack must be >= 0")
    encoder = codec_for(params, sig.sample_rate)[0]
    reference = encoder.preamble_reference()
    best, best_score = offset, -1.0
    samples = sig.samples
    # Two scores per offset: a coherent correlation (best when the
    # carrier is phase-stable, even through band-pass filtering) and an
    # envelope correlation (survives carrier rotation on unfiltered
    # ON-OFF replies). Whichever wins anywhere decides the alignment.
    envelope = np.abs(samples)
    for k in range(offset, offset + slack + 1):
        window = samples[k : k + len(reference)]
        if len(window) < len(reference):
            break
        coherent = abs(np.dot(reference, window - np.mean(window)))
        env_window = envelope[k : k + len(reference)]
        noncoherent = abs(np.dot(reference, env_window - np.mean(env_window)))
        score = max(coherent, noncoherent)
        if score > best_score:
            best, best_score = k, score
    return best


def estimate_channel(
    sig: Signal,
    params: TagParams,
    n_bits: int,
    offset: int = 0,
    expected_bits: Optional[Bits] = None,
    align_slack: int = 0,
) -> ChannelEstimate:
    """Decode a reply and estimate its complex channel.

    Parameters
    ----------
    sig:
        Received complex baseband containing the reply (plus CW leak).
    params:
        The tag's reply parameters (BLF, encoding).
    n_bits:
        Payload length the reader expects.
    offset:
        Sample index where the reply begins (refined by
        :func:`align_to_preamble` within ``align_slack``).
    expected_bits:
        When provided, decoding is skipped and the reply is matched
        against these bits (used by the phase-accuracy benchmarks where
        the payload is known).

    Returns
    -------
    ChannelEstimate
        The least-squares ``h``, a post-fit SNR estimate, and the bits.
        Note the SNR is a *template-fit* figure: band-limiting filters
        (e.g. the relay's BPF) shave the reply's edges, and that
        deterministic mismatch counts against the fit even when thermal
        noise is negligible — so it is a conservative lower bound.
    """
    encoder, decoder = codec_for(params, sig.sample_rate)
    if align_slack > 0:
        if expected_bits is not None:
            # Known payload: matched-filter synchronization over the
            # whole reply is far more robust at low SNR than the
            # preamble-only search.
            template_wave = np.real(encoder.encode(expected_bits).samples)
            template_wave = template_wave - np.mean(template_wave)
            best, best_score = offset, -1.0
            for k in range(offset, offset + align_slack + 1):
                window = sig.samples[k : k + len(template_wave)]
                if len(window) < len(template_wave):
                    break
                score = abs(np.dot(template_wave, window - np.mean(window)))
                if score > best_score:
                    best, best_score = k, score
            offset = best
        else:
            offset = align_to_preamble(sig, params, offset, align_slack)
    reply_len = int(round(encoder.duration_of(n_bits) * sig.sample_rate))
    if offset + reply_len > len(sig):
        raise EncodingError(
            f"reply of {reply_len} samples at offset {offset} exceeds the "
            f"signal length {len(sig)}"
        )
    region = sig.samples[offset : offset + reply_len]
    centered = region - np.mean(region)

    if expected_bits is not None:
        bits = expected_bits
    else:
        try:
            # Coherent path: project onto the channel axis and decode.
            # (``projected`` is already offset-sliced: decode at 0.)
            projected, _ = project_to_real(centered)
            bits = decoder.decode(sig.with_samples(projected), n_bits, offset=0)
        except EncodingError:
            # Non-coherent fallback: a rotating carrier (CFO through a
            # non-phase-preserving relay) destroys the projection, but
            # the ON-OFF envelope still carries the bits. This is why a
            # conventional relay can *communicate* yet cannot support
            # phase-based localization (paper Fig. 10).
            envelope = np.abs(region)
            bits = decoder.decode(sig.with_samples(envelope), n_bits, offset=0)

    template_sig = encoder.encode(bits)
    template = np.real(template_sig.samples).astype(float)
    n = min(len(template), len(centered))
    template = template[:n] - np.mean(template[:n])
    y = centered[:n]
    denom = float(np.dot(template, template))
    if denom <= 0:
        raise EncodingError("degenerate reply template")
    h = complex(np.dot(template, y) / denom)

    residual = y - h * template
    noise_power = float(np.mean(np.abs(residual) ** 2))
    signal_power = abs(h) ** 2 * denom / n
    snr_db = float(linear_to_db(max(signal_power, 1e-30) / max(noise_power, 1e-30)))
    return ChannelEstimate(h=h, snr_db=snr_db, bits=bits)
