"""Tests for the less-traveled measurement utilities."""

import numpy as np
import pytest

from repro.dsp import Signal, awgn, tone, tone_power_dbm
from repro.dsp.measurements import (
    estimate_snr_db,
    peak_tone_power_dbm,
    phase_of_tone,
)
from repro.dsp.units import amplitude_for_power_dbm
from repro.errors import SignalError

FS = 4e6


class TestPeakToneSearch:
    def test_finds_offset_tone(self):
        """A tone 1.2 kHz off its nominal position (CFO) is still found."""
        sig = tone(50e3 + 1200.0, 4e-3, FS, amplitude_for_power_dbm(-20.0))
        nominal = tone_power_dbm(sig, 50e3)
        peaked = peak_tone_power_dbm(sig, 50e3, span_hz=5e3, step_hz=100.0)
        assert peaked == pytest.approx(-20.0, abs=0.1)
        assert nominal < peaked - 3.0  # the fixed marker underestimates

    def test_exact_tone_matches_plain_measurement(self):
        sig = tone(100e3, 4e-3, FS, amplitude_for_power_dbm(-30.0))
        assert peak_tone_power_dbm(sig, 100e3) == pytest.approx(
            tone_power_dbm(sig, 100e3), abs=0.05
        )

    def test_invalid_span(self):
        sig = tone(0.0, 1e-3, FS)
        with pytest.raises(SignalError):
            peak_tone_power_dbm(sig, 0.0, span_hz=-1.0)


class TestPhaseOfTone:
    @pytest.mark.parametrize("phase", [-3.0, -1.0, 0.0, 0.5, 2.5])
    def test_recovers_phase(self, phase):
        sig = tone(25e3, 2e-3, FS, phase_rad=phase)
        assert phase_of_tone(sig, 25e3) == pytest.approx(phase, abs=1e-6)

    def test_empty_signal_rejected(self):
        with pytest.raises(SignalError):
            phase_of_tone(Signal(np.array([]), FS), 0.0)


class TestEstimateSnr:
    def test_clean_tone_reports_high_snr(self):
        rng = np.random.default_rng(0)
        sig = awgn(tone(50e3, 10e-3, FS), 30.0, rng)
        measured = estimate_snr_db(sig, (40e3, 60e3))
        # In-band SNR over a narrow band is higher than the full-band
        # figure; it must at least confirm a strong signal.
        assert measured > 25.0

    def test_noise_only_band_reports_low_snr(self):
        rng = np.random.default_rng(1)
        sig = awgn(tone(200e3, 10e-3, FS), 10.0, rng)
        measured = estimate_snr_db(sig, (-60e3, -40e3))  # an empty band
        assert measured < 10.0

    def test_invalid_band(self):
        sig = tone(0.0, 1e-3, FS)
        with pytest.raises(SignalError):
            estimate_snr_db(sig, (10.0, 10.0))
        with pytest.raises(SignalError):
            estimate_snr_db(sig, (-FS, FS))  # covers everything

    def test_empty_signal(self):
        with pytest.raises(SignalError):
            estimate_snr_db(Signal(np.array([]), FS), (0.0, 1.0))
