"""Tests for the relay's baseband filters.

The filters carry the paper's inter-link isolation (§4.2/§6.1): the
downlink LPF must pass the 100 kHz-wide query and crush the 500 kHz tag
response; the uplink BPF must do the opposite.
"""

import pytest

from repro.constants import (
    GEN2_BLF_DEFAULT,
    RELAY_BPF_CENTER_HZ,
    RELAY_BPF_HALF_BANDWIDTH_HZ,
    RELAY_LPF_CUTOFF_HZ,
)
from repro.dsp import BandPassFilter, LowPassFilter, tone, tone_power_dbm
from repro.errors import ConfigurationError, SampleRateError

FS = 4e6


@pytest.fixture
def lpf():
    return LowPassFilter(RELAY_LPF_CUTOFF_HZ, FS, order=6)


@pytest.fixture
def bpf():
    return BandPassFilter(
        RELAY_BPF_CENTER_HZ, RELAY_BPF_HALF_BANDWIDTH_HZ, FS, order=4
    )


class TestLowPass:
    def test_passband_nearly_transparent(self, lpf):
        assert lpf.attenuation_db(10e3) < 0.5

    def test_blf_rejection_enables_interlink_isolation(self, lpf):
        """Rejection at the tag's 500 kHz BLF must be very deep (Fig. 9a)."""
        assert lpf.attenuation_db(GEN2_BLF_DEFAULT) > 80.0

    def test_monotone_rolloff(self, lpf):
        freqs = [150e3, 250e3, 400e3, 700e3, 1e6]
        attens = [lpf.attenuation_db(f) for f in freqs]
        assert all(a < b for a, b in zip(attens, attens[1:]))

    def test_applied_attenuation_matches_response(self, lpf):
        probe = tone(GEN2_BLF_DEFAULT, 2e-3, FS)
        out = lpf.apply(probe)
        # skip the transient: measure over the steady-state tail
        steady = out.sliced(len(out) // 2)
        measured = tone_power_dbm(probe, GEN2_BLF_DEFAULT) - tone_power_dbm(
            steady, GEN2_BLF_DEFAULT
        )
        assert measured == pytest.approx(lpf.attenuation_db(GEN2_BLF_DEFAULT), abs=1.0)

    def test_rejects_wrong_sample_rate(self, lpf):
        probe = tone(0.0, 1e-4, FS * 2)
        with pytest.raises(SampleRateError):
            lpf.apply(probe)

    def test_invalid_cutoff_rejected(self):
        with pytest.raises(ConfigurationError):
            LowPassFilter(FS, FS)
        with pytest.raises(ConfigurationError):
            LowPassFilter(-1.0, FS)
        with pytest.raises(ConfigurationError):
            LowPassFilter(100e3, FS, order=0)


class TestBandPass:
    def test_passband_nearly_transparent(self, bpf):
        assert bpf.attenuation_db(RELAY_BPF_CENTER_HZ) < 0.5

    def test_query_rejection_enables_interlink_isolation(self, bpf):
        """Rejection at the query's 50 kHz offset must be very deep (Fig. 9b)."""
        assert bpf.attenuation_db(50e3) > 80.0

    def test_band_edges(self, bpf):
        lo = RELAY_BPF_CENTER_HZ - RELAY_BPF_HALF_BANDWIDTH_HZ
        hi = RELAY_BPF_CENTER_HZ + RELAY_BPF_HALF_BANDWIDTH_HZ
        assert bpf.attenuation_db(lo) == pytest.approx(3.0, abs=0.2)
        assert bpf.attenuation_db(hi) == pytest.approx(3.0, abs=0.2)

    def test_invalid_band_rejected(self):
        with pytest.raises(ConfigurationError):
            BandPassFilter(500e3, -1.0, FS)
        with pytest.raises(ConfigurationError):
            BandPassFilter(50e3, 100e3, FS)  # lower edge below zero
        with pytest.raises(ConfigurationError):
            BandPassFilter(FS / 2, 100e3, FS)  # upper edge above Nyquist

    def test_applied_rejection_on_mixed_signal(self, lpf, bpf):
        """Two-tone separation: the guard-band property of paper Fig. 4."""
        query = tone(50e3, 4e-3, FS)  # amplitude 1 -> +30 dBm
        response = tone(GEN2_BLF_DEFAULT, 4e-3, FS, amplitude=0.1)  # +10 dBm
        both = query + response
        after_lpf = lpf.apply(both).sliced(8000)
        after_bpf = bpf.apply(both).sliced(8000)
        # LPF keeps the query (~30 dBm), removes the response (>80 dB down).
        assert tone_power_dbm(after_lpf, 50e3) > 29.0
        assert tone_power_dbm(after_lpf, GEN2_BLF_DEFAULT) < 10.0 - 80.0
        # BPF keeps the response (~10 dBm), removes the query (>80 dB down).
        assert tone_power_dbm(after_bpf, GEN2_BLF_DEFAULT) > 9.0
        assert tone_power_dbm(after_bpf, 50e3) < 30.0 - 80.0
