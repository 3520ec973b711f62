"""Tests for the forwarding paths and the mirrored architecture."""

import numpy as np
import pytest

from repro.constants import GEN2_BLF_DEFAULT
from repro.dsp import (
    LowPassFilter,
    Oscillator,
    peak_power_dbm,
    phase_of_tone,
    tone,
    tone_power_dbm,
)
from repro.dsp.amplifier import AmplifierChain, VariableGainAmplifier
from repro.dsp.units import amplitude_for_power_dbm
from repro.errors import ConfigurationError, RelayError
from repro.relay import MirroredRelay, NoMirrorRelay
from repro.relay.mirrored import RelayConfig
from repro.relay.paths import ForwardingPath, PathConfig

FS = 4e6
F1 = 915e6


def make_path(gain_db=20.0, feedthrough_db=40.0):
    return ForwardingPath(
        lo_in=Oscillator.ideal(F1),
        baseband_filter=LowPassFilter(100e3, FS, 6),
        amplifiers=AmplifierChain([VariableGainAmplifier(gain_db)]),
        lo_out=Oscillator.ideal(F1 + 1e6),
        config=PathConfig(feedthrough_db=feedthrough_db),
    )


class TestForwardingPath:
    def test_same_inout_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            ForwardingPath(
                lo_in=Oscillator.ideal(F1),
                baseband_filter=LowPassFilter(100e3, FS, 6),
                amplifiers=AmplifierChain([]),
                lo_out=Oscillator.ideal(F1),
            )

    def test_center_moves_to_output_frequency(self):
        path = make_path()
        out = path.forward(tone(10e3, 1e-3, FS, 0.01, F1))
        assert out.center_frequency_hz == pytest.approx(F1 + 1e6)

    def test_in_band_signal_forwarded_with_gain(self):
        path = make_path(gain_db=20.0)
        probe = tone(10e3, 4e-3, FS, amplitude_for_power_dbm(-40.0), F1)
        out = path.forward(probe).sliced(8000)
        assert tone_power_dbm(out, 10e3) == pytest.approx(-20.0, abs=0.3)

    def test_out_of_band_signal_rejected(self):
        path = make_path(gain_db=20.0)
        probe = tone(GEN2_BLF_DEFAULT, 4e-3, FS, amplitude_for_power_dbm(-40.0), F1)
        out = path.forward(probe).sliced(8000)
        # 86 dB of LPF rejection minus the 20 dB gain.
        assert tone_power_dbm(out, GEN2_BLF_DEFAULT) < -100.0

    def test_feedthrough_leaks_at_original_frequency(self):
        path = make_path(feedthrough_db=40.0)
        probe = tone(10e3, 4e-3, FS, amplitude_for_power_dbm(-30.0), F1)
        out = path.forward(probe).sliced(8000)
        # The leak sits at absolute F1+10 kHz = offset -990 kHz.
        leak = tone_power_dbm(out, (F1 + 10e3) - out.center_frequency_hz)
        assert leak == pytest.approx(-70.0, abs=0.5)

    def test_wrong_center_rejected(self):
        path = make_path()
        with pytest.raises(RelayError):
            path.forward(tone(0.0, 1e-4, FS, 1.0, F1 + 50e6))

    def test_invalid_feedthrough(self):
        with pytest.raises(ConfigurationError):
            PathConfig(feedthrough_db=0.0)


class TestRelayConfig:
    def test_defaults_valid(self):
        RelayConfig()

    def test_shift_must_clear_filters(self):
        with pytest.raises(ConfigurationError):
            RelayConfig(frequency_shift_hz=400e3)

    def test_sample_rate_must_cover_shift(self):
        with pytest.raises(ConfigurationError):
            RelayConfig(sample_rate=2e6)


class TestMirroredRelay:
    def test_structure_is_mirrored(self):
        relay = MirroredRelay(F1, rng=np.random.default_rng(0))
        # The four mixers share two synthesizers.
        assert relay.downlink.lo_in is relay.uplink.lo_out
        assert relay.downlink.lo_out is relay.uplink.lo_in

    def test_no_mirror_is_not(self):
        relay = NoMirrorRelay(F1, rng=np.random.default_rng(0))
        assert relay.downlink.lo_in is not relay.uplink.lo_out
        assert relay.downlink.lo_out is not relay.uplink.lo_in

    def test_downlink_uplink_frequencies(self):
        relay = MirroredRelay(F1, rng=np.random.default_rng(0))
        sig = tone(10e3, 1e-3, FS, 0.001, F1)
        down = relay.forward_downlink(sig)
        assert down.center_frequency_hz == pytest.approx(relay.shifted_frequency_hz)
        back = relay.forward_uplink(
            tone(GEN2_BLF_DEFAULT, 1e-3, FS, 0.001, relay.shifted_frequency_hz)
        )
        assert back.center_frequency_hz == pytest.approx(F1)

    def test_round_trip_phase_preserved(self):
        """The Fig. 10 property, at tone level: two relays with different
        random synthesizer errors produce the same round-trip phase."""
        phases = []
        for seed in range(4):
            relay = MirroredRelay(F1, rng=np.random.default_rng(seed))
            # Downlink a CW, uplink a response tone derived from it.
            cw = tone(0.0, 4e-3, FS, amplitude_for_power_dbm(-30.0), F1)
            at_tag = relay.forward_downlink(cw)
            # Tag modulates at +BLF: multiply by a BLF subcarrier.
            t = at_tag.times
            sub = np.exp(2j * np.pi * GEN2_BLF_DEFAULT * t)
            response = at_tag.with_samples(at_tag.samples * sub * 0.1)
            at_reader = relay.forward_uplink(response)
            steady = at_reader.sliced(8000)
            phases.append(phase_of_tone(steady, GEN2_BLF_DEFAULT))
        # Residual spread comes from the baseband filters' phase slope
        # evaluated at each build's CFO — a fraction of a degree per
        # 100 Hz — not from the (cancelled) oscillator offsets.
        spread = np.max(np.abs(np.exp(1j * np.array(phases))
                               - np.exp(1j * phases[0])))
        assert spread < 0.15  # well under a degree-equivalent per 100 Hz CFO

    def test_no_mirror_randomizes_phase(self):
        phases = []
        for seed in range(6):
            relay = NoMirrorRelay(F1, rng=np.random.default_rng(seed))
            cw = tone(0.0, 4e-3, FS, amplitude_for_power_dbm(-30.0), F1)
            at_tag = relay.forward_downlink(cw)
            t = at_tag.times
            sub = np.exp(2j * np.pi * GEN2_BLF_DEFAULT * t)
            response = at_tag.with_samples(at_tag.samples * sub * 0.1)
            at_reader = relay.forward_uplink(response)
            steady = at_reader.sliced(8000)
            phases.append(phase_of_tone(steady, GEN2_BLF_DEFAULT))
        spread = np.std(np.angle(np.exp(1j * (np.array(phases) - phases[0]))))
        assert spread > 0.3  # effectively random

    def test_pa_limits_downlink_output(self):
        relay = MirroredRelay(F1, rng=np.random.default_rng(1))
        hot = tone(10e3, 2e-3, FS, amplitude_for_power_dbm(20.0), F1)
        out = relay.forward_downlink(hot)
        sat = relay.downlink.amplifiers.stages[-1].saturation_power_dbm
        assert peak_power_dbm(out) <= sat + 0.5

    def test_invalid_reader_frequency(self):
        with pytest.raises(ConfigurationError):
            MirroredRelay(-1.0)
