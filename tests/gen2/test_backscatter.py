"""Tests for FM0 and Miller backscatter encodings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp import Signal
from repro.errors import ConfigurationError, EncodingError
from repro.gen2 import (
    FM0Decoder,
    FM0Encoder,
    MillerDecoder,
    MillerEncoder,
    TagParams,
)

FS = 8e6
payloads = st.lists(st.integers(0, 1), min_size=1, max_size=96).map(tuple)


class TestTagParams:
    def test_blf_bounds(self):
        with pytest.raises(ConfigurationError):
            TagParams(blf=10e3)
        with pytest.raises(ConfigurationError):
            TagParams(blf=1e6)

    def test_miller_values(self):
        with pytest.raises(ConfigurationError):
            TagParams(miller_m=3)


class TestFM0:
    def test_roundtrip(self):
        params = TagParams(blf=500e3)
        enc, dec = FM0Encoder(params, FS), FM0Decoder(params, FS)
        bits = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0)
        assert dec.decode(enc.encode(bits), len(bits)) == bits

    def test_roundtrip_with_trext_pilot(self):
        params = TagParams(blf=500e3, trext=True)
        enc, dec = FM0Encoder(params, FS), FM0Decoder(params, FS)
        bits = (1, 0, 0, 1)
        assert dec.decode(enc.encode(bits), len(bits)) == bits

    def test_waveform_is_on_off(self):
        enc = FM0Encoder(TagParams(blf=500e3), FS)
        wave = enc.encode((1, 0, 1))
        levels = set(np.unique(np.real(wave.samples)))
        assert levels == {0.0, 1.0}

    def test_duration_formula(self):
        params = TagParams(blf=500e3)
        enc = FM0Encoder(params, FS)
        bits = (1,) * 16
        expected = enc.duration_of(16)
        assert enc.encode(bits).duration == pytest.approx(expected, rel=0.01)

    def test_boundary_inversions(self):
        """FM0 must invert at every symbol boundary (except the violation)."""
        enc = FM0Encoder(TagParams(blf=500e3), FS)
        halves = enc.encode_halves((1, 1, 1, 1))
        # For all-ones data, halves come in constant pairs that alternate.
        pairs = [tuple(halves[i : i + 2]) for i in range(0, len(halves), 2)]
        for a, b in zip(pairs[-5:], pairs[-4:]):  # data region
            assert a != b

    def test_violation_breaks_data_rule(self):
        """The preamble's v symbol repeats the previous level (no inversion)."""
        enc = FM0Encoder(TagParams(blf=500e3), FS)
        halves = enc.encode_halves(())
        # Preamble bit symbols: 1 0 1 0 v 1 -> halves index 8..9 is v.
        v = halves[8:10]
        prior_end = halves[7]
        assert v[0] == prior_end  # no boundary inversion = violation

    def test_polarity_inversion_tolerated(self):
        """Decoding must survive an inverted channel (negative real h)."""
        params = TagParams(blf=500e3)
        enc, dec = FM0Encoder(params, FS), FM0Decoder(params, FS)
        bits = (1, 0, 0, 1, 1, 0)
        wave = enc.encode(bits)
        inverted = wave.with_samples(1.0 - wave.samples)
        assert dec.decode(inverted, len(bits)) == bits

    def test_noise_tolerance(self):
        params = TagParams(blf=500e3)
        enc, dec = FM0Encoder(params, FS), FM0Decoder(params, FS)
        rng = np.random.default_rng(2)
        bits = tuple(rng.integers(0, 2, 64))
        wave = enc.encode(bits)
        noisy = wave.with_samples(
            wave.samples + 0.1 * rng.standard_normal(len(wave))
        )
        assert dec.decode(noisy, len(bits)) == bits

    def test_garbage_rejected(self):
        params = TagParams(blf=500e3)
        dec = FM0Decoder(params, FS)
        rng = np.random.default_rng(3)
        garbage = Signal(rng.standard_normal(4000), FS)
        with pytest.raises(EncodingError):
            dec.decode(garbage, 16)

    def test_flat_signal_rejected(self):
        params = TagParams(blf=500e3)
        dec = FM0Decoder(params, FS)
        with pytest.raises(EncodingError):
            dec.decode(Signal.silence(1e-3, FS), 16)

    def test_too_short_rejected(self):
        params = TagParams(blf=500e3)
        enc, dec = FM0Encoder(params, FS), FM0Decoder(params, FS)
        wave = enc.encode((1, 0))
        with pytest.raises(EncodingError):
            dec.decode(wave, 64)

    def test_low_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            FM0Encoder(TagParams(blf=500e3), 1e6)

    def test_encoder_requires_fm0_params(self):
        with pytest.raises(ConfigurationError):
            FM0Encoder(TagParams(blf=500e3, miller_m=4), FS)

    @settings(max_examples=30, deadline=None)
    @given(payloads)
    def test_roundtrip_property(self, bits):
        params = TagParams(blf=500e3)
        enc, dec = FM0Encoder(params, FS), FM0Decoder(params, FS)
        assert dec.decode(enc.encode(bits), len(bits)) == bits


class TestMiller:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_roundtrip_all_m(self, m):
        params = TagParams(blf=250e3, miller_m=m)
        enc, dec = MillerEncoder(params, FS), MillerDecoder(params, FS)
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        assert dec.decode(enc.encode(bits), len(bits)) == bits

    def test_encoder_rejects_fm0(self):
        with pytest.raises(ConfigurationError):
            MillerEncoder(TagParams(blf=500e3, miller_m=1), FS)

    def test_subcarrier_present(self):
        """Miller energy concentrates near the BLF, not at DC."""
        params = TagParams(blf=250e3, miller_m=4)
        enc = MillerEncoder(params, FS)
        wave = enc.encode((1, 0) * 8)
        spectrum = np.abs(np.fft.rfft(np.real(wave.samples) - 0.5))
        freqs = np.fft.rfftfreq(len(wave), 1 / FS)
        peak = freqs[np.argmax(spectrum)]
        assert abs(peak - params.blf) < 50e3

    def test_duration_formula(self):
        params = TagParams(blf=250e3, miller_m=2)
        enc = MillerEncoder(params, FS)
        assert enc.encode((1,) * 8).duration == pytest.approx(
            enc.duration_of(8), rel=0.01
        )

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=32).map(tuple))
    def test_roundtrip_property(self, bits):
        params = TagParams(blf=250e3, miller_m=2)
        enc, dec = MillerEncoder(params, FS), MillerDecoder(params, FS)
        assert dec.decode(enc.encode(bits), len(bits)) == bits
