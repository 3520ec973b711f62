"""Tests for complex channel estimation from tag replies."""

import numpy as np
import pytest

from repro.dsp import Signal
from repro.errors import EncodingError, SignalError
from repro.gen2.backscatter import TagParams
from repro.reader.channel_estimation import (
    align_to_preamble,
    codec_for,
    estimate_channel,
    find_reply_start,
    project_to_real,
)

FS = 8e6
PARAMS = TagParams(blf=500e3)


def synth_reply(bits, h, noise_std=0.0, seed=0, params=PARAMS, dc=0.0):
    """A received baseband: DC + h * reflection + noise."""
    enc = codec_for(params, FS)[0]
    wave = enc.encode(bits)
    rng = np.random.default_rng(seed)
    samples = dc + h * wave.samples
    if noise_std > 0:
        samples = samples + noise_std * (
            rng.standard_normal(len(samples)) + 1j * rng.standard_normal(len(samples))
        )
    return Signal(samples, FS)


class TestProjection:
    def test_projects_onto_channel_axis(self):
        rng = np.random.default_rng(0)
        h = 0.7 * np.exp(1j * 1.1)
        levels = rng.integers(0, 2, 1000) * 2.0 - 1.0
        samples = h * levels
        projected, rotation = project_to_real(samples)
        # The projection preserves magnitude and is purely real.
        np.testing.assert_allclose(np.abs(projected), 0.7, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(SignalError):
            project_to_real(np.array([]))


class TestEstimate:
    @pytest.mark.parametrize("phase", [-2.5, -0.3, 0.0, 1.0, 3.0])
    def test_recovers_channel_phase(self, phase):
        bits = (1, 0, 1, 1, 0, 0, 1, 0) * 4
        h = 1e-3 * np.exp(1j * phase)
        sig = synth_reply(bits, h, dc=0.05)
        est = estimate_channel(sig, PARAMS, len(bits))
        assert est.phase_rad == pytest.approx(phase if phase <= np.pi else phase - 2 * np.pi, abs=1e-6)
        assert est.bits == bits

    def test_recovers_magnitude(self):
        bits = (1, 1, 0, 0) * 8
        h = 2.5e-4 + 0.0j
        est = estimate_channel(synth_reply(bits, h), PARAMS, len(bits))
        assert est.magnitude == pytest.approx(2.5e-4, rel=1e-6)

    def test_dc_leak_does_not_bias(self):
        bits = (1, 0) * 16
        h = 1e-3 * np.exp(1j * 0.7)
        with_dc = estimate_channel(synth_reply(bits, h, dc=0.3 + 0.2j), PARAMS, len(bits))
        without = estimate_channel(synth_reply(bits, h), PARAMS, len(bits))
        assert with_dc.h == pytest.approx(without.h, rel=1e-6)

    def test_noise_tolerance(self):
        bits = tuple(np.random.default_rng(3).integers(0, 2, 96))
        h = 1e-3 * np.exp(1j * 2.0)
        sig = synth_reply(bits, h, noise_std=1e-4, seed=4)
        est = estimate_channel(sig, PARAMS, len(bits))
        assert est.bits == bits
        assert est.phase_rad == pytest.approx(2.0, abs=0.02)
        assert est.snr_db > 10.0

    def test_known_bits_skip_decoding(self):
        bits = (1, 0, 1, 1) * 4
        h = 1e-3 * np.exp(1j * 1.5)
        # Heavy noise breaks blind decode, but known-bits fitting works.
        sig = synth_reply(bits, h, noise_std=5e-4, seed=5)
        est = estimate_channel(sig, PARAMS, len(bits), expected_bits=bits)
        assert est.phase_rad == pytest.approx(1.5, abs=0.2)

    def test_miller_estimation(self):
        params = TagParams(blf=500e3, miller_m=4)
        bits = (0, 1, 1, 0) * 4
        h = 1e-3 * np.exp(1j * -1.2)
        est = estimate_channel(synth_reply(bits, h, params=params), params, len(bits))
        assert est.bits == bits
        assert est.phase_rad == pytest.approx(-1.2, abs=1e-6)

    def test_too_short_signal_rejected(self):
        sig = Signal(np.zeros(10, dtype=complex), FS)
        with pytest.raises(EncodingError):
            estimate_channel(sig, PARAMS, 128)


class TestAlignment:
    def test_finds_shifted_reply(self):
        bits = (1, 0, 0, 1) * 8
        h = 1e-3 * np.exp(1j * 0.5)
        clean = synth_reply(bits, h)
        shift = 37
        shifted = Signal(
            np.concatenate([np.zeros(shift, dtype=complex), clean.samples]), FS
        )
        found = align_to_preamble(shifted, PARAMS, 0, 64)
        assert found == shift
        est = estimate_channel(shifted, PARAMS, len(bits), offset=0, align_slack=64)
        assert est.bits == bits
        assert est.phase_rad == pytest.approx(0.5, abs=1e-3)

    def test_negative_slack_rejected(self):
        sig = synth_reply((1, 0), 1e-3)
        with pytest.raises(SignalError):
            align_to_preamble(sig, PARAMS, 0, -1)

    def test_find_reply_start_energy_detector(self):
        bits = (1, 0, 1, 0) * 8
        h = 1e-3
        clean = synth_reply(bits, h)
        shift = 100
        padded = Signal(
            np.concatenate(
                [
                    np.zeros(shift, dtype=complex),
                    clean.samples,
                    np.zeros(200, dtype=complex),
                ]
            ),
            FS,
        )
        found = find_reply_start(padded, PARAMS, len(bits))
        assert abs(found - shift) <= 24  # within a half-symbol

    def test_find_reply_start_too_short(self):
        with pytest.raises(EncodingError):
            find_reply_start(Signal(np.zeros(10, dtype=complex), FS), PARAMS, 128)
