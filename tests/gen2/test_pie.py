"""Tests for the reader's PIE modulation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import GEN2_BLF_DEFAULT
from repro.errors import ConfigurationError, EncodingError
from repro.gen2 import PIEDecoder, PIEEncoder, ReaderParams
from repro.gen2.pie import DELIMITER_SECONDS, DR_64_OVER_3

FS = 4e6


@pytest.fixture
def codec():
    params = ReaderParams()
    return PIEEncoder(params, FS), PIEDecoder(FS)


class TestReaderParams:
    def test_defaults_are_consistent(self):
        p = ReaderParams()
        assert p.rtcal == pytest.approx(3 * p.tari)
        assert p.trcal == pytest.approx((64.0 / 3.0) / GEN2_BLF_DEFAULT)
        assert 1.1 * p.rtcal <= p.trcal <= 3.0 * p.rtcal

    def test_tari_bounds_enforced(self):
        with pytest.raises(ConfigurationError):
            ReaderParams(tari=1e-6)
        with pytest.raises(ConfigurationError):
            ReaderParams(tari=50e-6)

    def test_data1_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            ReaderParams(data1_factor=1.2)

    def test_trcal_consistency_enforced(self):
        # Tari 25 us makes RTcal 75 us; TRcal for 640 kHz BLF is 33 us,
        # below 1.1 * RTcal -> invalid combination.
        with pytest.raises(ConfigurationError):
            ReaderParams(tari=25e-6, blf=640e3)

    def test_modulation_depth_bounds(self):
        with pytest.raises(ConfigurationError):
            ReaderParams(modulation_depth=0.0)
        with pytest.raises(ConfigurationError):
            ReaderParams(modulation_depth=1.5)


class TestEncode:
    def test_waveform_levels(self, codec):
        enc, _ = codec
        sig = enc.encode((1, 0, 1), preamble=False)
        env = np.abs(sig.samples)
        assert np.max(env) == pytest.approx(1.0)
        assert np.min(env) == pytest.approx(1.0 - enc.params.modulation_depth)

    def test_starts_with_delimiter(self, codec):
        enc, _ = codec
        sig = enc.encode((1,), preamble=False)
        n_delim = int(round(DELIMITER_SECONDS * FS))
        low = 1.0 - enc.params.modulation_depth
        np.testing.assert_allclose(np.abs(sig.samples[:n_delim]), low)

    def test_preamble_longer_than_framesync(self, codec):
        enc, _ = codec
        with_preamble = enc.encode((1, 0), preamble=True)
        frame_sync = enc.encode((1, 0), preamble=False)
        trcal_samples = int(round(enc.params.trcal * FS))
        assert len(with_preamble) - len(frame_sync) == pytest.approx(
            trcal_samples, abs=2
        )

    def test_empty_command_rejected(self, codec):
        enc, _ = codec
        with pytest.raises(EncodingError):
            enc.encode((), preamble=False)

    def test_low_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            PIEEncoder(ReaderParams(), 100e3)


class TestDecode:
    def test_roundtrip_with_preamble(self, codec):
        enc, dec = codec
        bits = (1, 0, 0, 0, 1, 1, 0, 1)
        decoded, preamble, trcal = dec.decode(enc.encode(bits, preamble=True))
        assert decoded == bits
        assert preamble
        assert trcal == pytest.approx(enc.params.trcal, rel=0.02)

    def test_roundtrip_frame_sync(self, codec):
        enc, dec = codec
        bits = (0, 1, 1, 0)
        decoded, preamble, trcal = dec.decode(enc.encode(bits, preamble=False))
        assert decoded == bits
        assert not preamble
        assert trcal == 0.0

    def test_blf_recovered_from_trcal(self, codec):
        enc, dec = codec
        _, _, trcal = dec.decode(enc.encode((1, 0), preamble=True))
        # BLF = DR / TRcal (the default divide ratio is 64/3).
        assert DR_64_OVER_3 / trcal == pytest.approx(GEN2_BLF_DEFAULT, rel=0.02)

    def test_decode_with_scaling_and_phase(self, codec):
        """The tag decodes from the envelope: complex gain is irrelevant."""
        enc, dec = codec
        bits = (1, 1, 0, 1, 0, 0)
        sig = enc.encode(bits, preamble=True).scaled(0.02 * np.exp(1j * 1.234))
        decoded, _, _ = dec.decode(sig)
        assert decoded == bits

    def test_decode_alternative_tari(self):
        params = ReaderParams(tari=6.25e-6, blf=640e3)
        enc = PIEEncoder(params, FS)
        dec = PIEDecoder(FS)
        bits = (1, 0, 1, 1, 0)
        decoded, preamble, trcal = dec.decode(enc.encode(bits, preamble=True))
        assert decoded == bits
        assert DR_64_OVER_3 / trcal == pytest.approx(640e3, rel=0.05)

    def test_unmodulated_signal_rejected(self, codec):
        _, dec = codec
        from repro.dsp import tone

        with pytest.raises(EncodingError):
            dec.decode(tone(0.0, 1e-3, FS))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_roundtrip_property(self, bits):
        enc = PIEEncoder(ReaderParams(), FS)
        dec = PIEDecoder(FS)
        decoded, _, _ = dec.decode(enc.encode(tuple(bits), preamble=True))
        assert decoded == tuple(bits)
