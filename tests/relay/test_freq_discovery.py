"""Tests for reader center-frequency discovery and hopping lock-on."""

import numpy as np
import pytest

from repro.constants import UHF_BAND_START, UHF_BAND_STOP
from repro.dsp import Signal, awgn, tone
from repro.errors import ConfigurationError, FrequencyLockError
from repro.relay import FrequencyDiscovery
from repro.relay.freq_discovery import ism_channels

FS = 64e6
CENTER = 915e6


def reader_wave(frequency, duration, amplitude=0.01, rng=None, snr_db=None):
    sig = tone(frequency - CENTER, duration, FS, amplitude, CENTER)
    if snr_db is not None:
        sig = awgn(sig, snr_db, rng)
    return sig


class TestIsmChannels:
    def test_fifty_channels(self):
        channels = ism_channels()
        assert len(channels) == 50
        assert channels[0] > UHF_BAND_START
        assert channels[-1] < UHF_BAND_STOP

    def test_spacing(self):
        channels = ism_channels()
        np.testing.assert_allclose(np.diff(channels), 500e3)


class TestDiscovery:
    @pytest.mark.parametrize("channel_index", [0, 17, 49])
    def test_finds_reader_channel(self, channel_index):
        target = float(ism_channels()[channel_index])
        fd = FrequencyDiscovery()
        sig = reader_wave(target, fd.total_sweep_seconds)
        assert fd.discover(sig) == pytest.approx(target)

    def test_finds_channel_in_noise(self):
        rng = np.random.default_rng(0)
        target = float(ism_channels()[30])
        fd = FrequencyDiscovery()
        sig = reader_wave(target, fd.total_sweep_seconds, rng=rng, snr_db=0.0)
        assert fd.discover(sig) == pytest.approx(target)

    def test_noise_only_raises(self):
        rng = np.random.default_rng(1)
        fd = FrequencyDiscovery()
        noise = awgn(
            Signal.silence(fd.total_sweep_seconds, FS, CENTER).with_samples(
                np.zeros(int(fd.total_sweep_seconds * FS), dtype=complex)
            ),
            -100.0,
            rng,
        )
        # awgn needs nonzero signal power; construct noise directly.
        noise = Signal(
            0.01 * (rng.standard_normal(len(noise)) + 1j * rng.standard_normal(len(noise))),
            FS,
            CENTER,
        )
        with pytest.raises(FrequencyLockError):
            fd.discover(noise)

    def test_strongest_reader_wins(self):
        """With two readers, the sweep locks to the stronger (§4.3)."""
        fd = FrequencyDiscovery()
        strong = reader_wave(float(ism_channels()[10]), fd.total_sweep_seconds, 0.02)
        weak = reader_wave(float(ism_channels()[40]), fd.total_sweep_seconds, 0.002)
        combined = strong + weak
        assert fd.discover(combined) == pytest.approx(float(ism_channels()[10]))

    def test_signal_too_short_raises(self):
        fd = FrequencyDiscovery()
        short = reader_wave(float(ism_channels()[5]), fd.total_sweep_seconds / 4)
        with pytest.raises(FrequencyLockError):
            fd.discover(short)

    def test_chunk_duration(self):
        fd = FrequencyDiscovery(total_sweep_seconds=20e-3)
        assert fd.chunk_seconds == pytest.approx(20e-3 / 50)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            FrequencyDiscovery(candidates=[])
        with pytest.raises(ConfigurationError):
            FrequencyDiscovery(total_sweep_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            FrequencyDiscovery(min_peak_ratio=0.5)
