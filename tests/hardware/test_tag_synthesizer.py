"""Tests for the passive-tag and synthesizer hardware models."""

import numpy as np
import pytest

from repro.constants import TAG_SENSITIVITY_DBM
from repro.dsp import Signal, tone
from repro.errors import ConfigurationError
from repro.hardware import PassiveTag, Synthesizer, TagPowerState
from repro.hardware.reader_frontend import ReaderFrontend


def make_tag(**kwargs):
    return PassiveTag(
        epc=0xABC, position=(1.0, 2.0), rng=np.random.default_rng(0), **kwargs
    )


class TestPassiveTagPower:
    def test_powered_above_sensitivity(self):
        tag = make_tag()
        assert tag.is_powered(TAG_SENSITIVITY_DBM + 1.0)
        assert tag.power_state(TAG_SENSITIVITY_DBM + 1.0) == TagPowerState.POWERED

    def test_unpowered_below_sensitivity(self):
        tag = make_tag()
        assert not tag.is_powered(TAG_SENSITIVITY_DBM - 1.0)
        assert (
            tag.power_state(TAG_SENSITIVITY_DBM - 1.0)
            == TagPowerState.INSUFFICIENT_POWER
        )

    def test_modulation_depth_gate(self):
        tag = make_tag()
        assert (
            tag.power_state(0.0, modulation_depth=0.01)
            == TagPowerState.INSUFFICIENT_MODULATION
        )

    def test_epc_from_int(self):
        tag = make_tag()
        assert tag.epc_int == 0xABC
        assert len(tag.epc) == 96

    def test_epc_from_bits(self):
        bits = tuple([1, 0] * 48)
        tag = PassiveTag(epc=bits, position=(0, 0), rng=np.random.default_rng(0))
        assert tag.epc == bits

    def test_invalid_depth_threshold(self):
        with pytest.raises(ConfigurationError):
            make_tag(min_modulation_depth=0.0)


class TestBackscatter:
    def test_modulate_multiplies_waveforms(self):
        tag = make_tag()
        carrier = tone(0.0, 1e-4, 4e6, amplitude=1.0)
        reflection = Signal(
            np.tile([1.0, 0.0], len(carrier) // 2).astype(complex), 4e6
        )
        out = tag.modulate(carrier, reflection)
        # Zeros where non-reflective; attenuated carrier where reflective.
        assert np.all(out.samples[1::2] == 0)
        expected = np.sqrt(10 ** (-tag.modulation_loss_db / 10))
        np.testing.assert_allclose(np.abs(out.samples[::2]), expected, rtol=1e-9)


class TestSynthesizer:
    def test_cfo_scales_with_frequency(self):
        synth = Synthesizer(915e6, ppm_error=1.0)
        assert synth.oscillator.cfo_hz == pytest.approx(915.0)
        synth.tune(1.83e9)
        assert synth.oscillator.cfo_hz == pytest.approx(1830.0)

    def test_oscillator_stable_until_retuned(self):
        synth = Synthesizer(915e6)
        assert synth.oscillator is synth.oscillator

    def test_invalid_frequency(self):
        with pytest.raises(ConfigurationError):
            Synthesizer(0.0)
        with pytest.raises(ConfigurationError):
            Synthesizer(915e6).tune(-1.0)

    def test_implausible_ppm_rejected(self):
        with pytest.raises(ConfigurationError):
            Synthesizer(915e6, ppm_error=500.0)

    def test_random_within_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            synth = Synthesizer.random(915e6, rng, max_ppm=2.0)
            assert abs(synth.ppm_error) <= 2.0


class TestReaderFrontend:
    def test_transmit_power(self):
        from repro.dsp import mean_power_dbm

        synth = Synthesizer(915e6)
        fe = ReaderFrontend(synth, tx_power_dbm=20.0)
        cw = fe.continuous_wave(1e-4, 4e6)
        assert mean_power_dbm(cw) == pytest.approx(20.0, abs=1e-6)
        assert cw.center_frequency_hz == pytest.approx(915e6)

    def test_eirp_limit(self):
        with pytest.raises(ConfigurationError):
            ReaderFrontend(Synthesizer(915e6), tx_power_dbm=40.0)

    def test_coherent_receive_cancels_own_cfo(self):
        synth = Synthesizer(915e6, ppm_error=1.5)
        fe = ReaderFrontend(synth, tx_power_dbm=20.0)
        cw = fe.continuous_wave(1e-3, 4e6)
        baseband = fe.receive(cw, add_noise=False)
        # Pure DC at baseband: the TX and RX share the LO.
        assert np.std(np.angle(baseband.samples)) < 1e-9

    def test_receive_noise_requires_rng(self):
        fe = ReaderFrontend(Synthesizer(915e6), tx_power_dbm=20.0)
        cw = fe.continuous_wave(1e-4, 4e6)
        with pytest.raises(ConfigurationError):
            fe.receive(cw, add_noise=True)
