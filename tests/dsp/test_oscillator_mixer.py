"""Tests for oscillators and mixers, including mirrored-LO cancellation."""

import numpy as np
import pytest

from repro.dsp import Oscillator, downconvert, tone, upconvert
from repro.dsp.mixer import retune
from repro.errors import ConfigurationError, SignalError

FS = 4e6


class TestOscillator:
    def test_ideal_has_no_rotation(self):
        osc = Oscillator.ideal(915e6)
        t = np.linspace(0, 1e-3, 100)
        np.testing.assert_allclose(osc.envelope_rotation(t), 1.0)

    def test_phase_advances_at_cfo_rate(self):
        osc = Oscillator(915e6, cfo_hz=1000.0)
        # After 1 ms at 1 kHz CFO the error phase is 2 pi * 1 = one cycle.
        assert osc.phase_at(np.array([1e-3]))[0] == pytest.approx(2.0 * np.pi)

    def test_jitter_requires_rng(self):
        with pytest.raises(ConfigurationError):
            Oscillator(915e6, phase_jitter_std_rad=0.01)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            Oscillator(-1.0)

    def test_random_oscillator_within_ppm(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            osc = Oscillator.random(915e6, rng, max_cfo_ppm=2.0)
            assert abs(osc.cfo_hz) <= 915e6 * 2e-6

    def test_jitter_statistics(self):
        rng = np.random.default_rng(3)
        osc = Oscillator(915e6, phase_jitter_std_rad=0.05, rng=rng)
        phases = osc.phase_at(np.zeros(20000))
        assert np.std(phases) == pytest.approx(0.05, rel=0.05)


class TestMixer:
    def test_downconvert_moves_center(self):
        sig = tone(0.0, 1e-4, FS, center_frequency_hz=915e6)
        down = downconvert(sig, Oscillator.ideal(915e6))
        assert down.center_frequency_hz == pytest.approx(0.0)

    def test_upconvert_moves_center(self):
        sig = tone(0.0, 1e-4, FS, center_frequency_hz=0.0)
        up = upconvert(sig, Oscillator.ideal(916e6))
        assert up.center_frequency_hz == pytest.approx(916e6)

    def test_cfo_appears_as_envelope_rotation(self):
        sig = tone(0.0, 1e-3, FS, center_frequency_hz=915e6)
        down = downconvert(sig, Oscillator(915e6, cfo_hz=10e3))
        # The envelope should now rotate at -10 kHz.
        inst_freq = np.angle(down.samples[1:] * np.conj(down.samples[:-1]))
        measured = np.mean(inst_freq) * FS / (2.0 * np.pi)
        assert measured == pytest.approx(-10e3, rel=1e-6)

    def test_mirrored_updown_cancels_cfo_and_phase(self):
        """The mechanism behind the relay's mirrored architecture (§4.3)."""
        osc = Oscillator(915e6, cfo_hz=1234.5, phase_offset_rad=2.1)
        sig = tone(5e3, 1e-3, FS, center_frequency_hz=915e6)
        restored = upconvert(downconvert(sig, osc), osc)
        np.testing.assert_allclose(restored.samples, sig.samples, atol=1e-12)

    def test_independent_oscillators_do_not_cancel(self):
        """Without mirroring, a residual rotation remains (Eq. 6)."""
        rng = np.random.default_rng(11)
        osc_down = Oscillator.random(915e6, rng)
        osc_up = Oscillator.random(915e6, rng)
        sig = tone(5e3, 1e-3, FS, center_frequency_hz=915e6)
        out = upconvert(downconvert(sig, osc_down), osc_up)
        residual = np.max(np.abs(out.samples - sig.samples))
        assert residual > 1e-3

    def test_retune_preserves_absolute_content(self):
        sig = tone(50e3, 1e-3, FS, center_frequency_hz=915e6)
        moved = retune(sig, 915e6 - 100e3)
        # Content at absolute 915.05 MHz is now at +150 kHz baseband.
        from repro.dsp import tone_power_dbm

        assert tone_power_dbm(moved, 150e3) == pytest.approx(
            tone_power_dbm(sig, 50e3), abs=1e-6
        )

    def test_retune_rejects_aliasing_shift(self):
        sig = tone(0.0, 1e-4, FS, center_frequency_hz=915e6)
        with pytest.raises(SignalError):
            retune(sig, 915e6 + 2 * FS)
