"""Tests for the complex-envelope Signal container."""

import numpy as np
import pytest

from repro.dsp import Signal
from repro.errors import SampleRateError, SignalError

FS = 4e6


def make_signal(n=100, fc=915e6, t0=0.0):
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Signal(samples, FS, fc, t0)


class TestConstruction:
    def test_samples_coerced_to_complex(self):
        sig = Signal(np.ones(4), FS)
        assert sig.samples.dtype == np.complex128

    def test_rejects_2d_samples(self):
        with pytest.raises(SignalError):
            Signal(np.ones((2, 2)), FS)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(SignalError):
            Signal(np.ones(4), 0.0)

    def test_silence_has_zero_power(self):
        sig = Signal.silence(1e-3, FS)
        assert len(sig) == 4000
        assert sig.mean_power_watts == 0.0


class TestProperties:
    def test_duration(self):
        assert make_signal(n=400).duration == pytest.approx(1e-4)

    def test_times_start_at_start_time(self):
        sig = make_signal(t0=0.5)
        assert sig.times[0] == pytest.approx(0.5)
        assert sig.times[1] - sig.times[0] == pytest.approx(1.0 / FS)

    def test_mean_power_of_unit_tone(self):
        sig = Signal(np.exp(1j * np.linspace(0, 10, 1000)), FS)
        assert sig.mean_power_watts == pytest.approx(1.0)

    def test_empty_signal_power_is_zero(self):
        assert Signal(np.array([]), FS).mean_power_watts == 0.0


class TestDerivation:
    def test_scaled_multiplies_amplitude(self):
        sig = make_signal()
        assert sig.scaled(2.0).mean_power_watts == pytest.approx(
            4.0 * sig.mean_power_watts
        )

    def test_delay_shifts_time_base(self):
        sig = make_signal()
        delayed = sig.delayed(1e-6)
        assert delayed.start_time == pytest.approx(1e-6)

    def test_delay_imparts_carrier_phase(self):
        sig = make_signal(fc=915e6)
        tau = 3.0 / 915e6  # three carrier cycles: phase multiple of 2 pi
        delayed = sig.delayed(tau)
        np.testing.assert_allclose(delayed.samples, sig.samples, rtol=1e-9)

    def test_half_cycle_delay_negates(self):
        sig = make_signal(fc=915e6)
        tau = 0.5 / 915e6
        delayed = sig.delayed(tau)
        np.testing.assert_allclose(delayed.samples, -sig.samples, rtol=1e-9)

    def test_slice_adjusts_start_time(self):
        sig = make_signal(n=100)
        part = sig.sliced(10, 20)
        assert len(part) == 10
        assert part.start_time == pytest.approx(10 / FS)

    def test_slice_out_of_range_raises(self):
        with pytest.raises(SignalError):
            make_signal(n=10).sliced(5, 20)


class TestCombination:
    def test_add_superposes(self):
        a = make_signal()
        b = a.scaled(-1.0)
        total = a + b
        assert total.mean_power_watts == pytest.approx(0.0, abs=1e-20)

    def test_add_pads_shorter_operand(self):
        a = make_signal(n=100)
        b = make_signal(n=50)
        total = a + b
        assert len(total) == 100
        np.testing.assert_allclose(total.samples[50:], a.samples[50:])

    def test_add_rejects_rate_mismatch(self):
        a = make_signal()
        b = Signal(a.samples, FS * 2, a.center_frequency_hz)
        with pytest.raises(SampleRateError):
            a + b

    def test_add_rejects_center_mismatch(self):
        a = make_signal(fc=915e6)
        b = Signal(a.samples, FS, 916e6)
        with pytest.raises(SignalError):
            a + b

    def test_add_rejects_time_mismatch(self):
        a = make_signal()
        b = make_signal(t0=1e-3)
        with pytest.raises(SignalError):
            a + b
