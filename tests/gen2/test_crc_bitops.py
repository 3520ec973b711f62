"""Tests for CRC-5/CRC-16 and bit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CRCError, EncodingError
from repro.gen2.bitops import (
    bits_from_int,
    bits_to_int,
    validate_bits,
)
from repro.gen2.crc import (
    append_crc16,
    check_crc5,
    check_crc16,
    crc5,
    crc16,
)

bit_vectors = st.lists(st.integers(0, 1), min_size=1, max_size=128).map(tuple)


class TestBitops:
    def test_roundtrip_known(self):
        assert bits_from_int(0b1011, 4) == (1, 0, 1, 1)
        assert bits_to_int((1, 0, 1, 1)) == 0b1011

    def test_width_zero(self):
        assert bits_from_int(0, 0) == ()

    def test_overflow_rejected(self):
        with pytest.raises(EncodingError):
            bits_from_int(16, 4)
        with pytest.raises(EncodingError):
            bits_from_int(-1, 4)

    def test_non_binary_rejected(self):
        with pytest.raises(EncodingError):
            validate_bits((0, 1, 2))

    @given(st.integers(0, 2**32 - 1))
    def test_int_roundtrip(self, value):
        assert bits_to_int(bits_from_int(value, 32)) == value


class TestCrc5:
    def test_length(self):
        assert len(crc5((1, 0, 1))) == 5

    def test_check_accepts_valid(self):
        payload = (1, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1)
        assert check_crc5(payload + crc5(payload)) == payload

    def test_check_rejects_flipped_bit(self):
        payload = (1, 0, 0, 0, 1, 0, 1, 0)
        frame = list(payload + crc5(payload))
        frame[3] ^= 1
        with pytest.raises(CRCError):
            check_crc5(tuple(frame))

    def test_short_frame_rejected(self):
        with pytest.raises(CRCError):
            check_crc5((1, 0, 1))

    @given(bit_vectors)
    def test_roundtrip_property(self, payload):
        assert check_crc5(payload + crc5(payload)) == payload

    @given(bit_vectors, st.integers(0, 200))
    def test_single_bit_errors_detected(self, payload, position):
        frame = list(payload + crc5(payload))
        frame[position % len(frame)] ^= 1
        with pytest.raises(CRCError):
            check_crc5(tuple(frame))


class TestCrc16:
    def test_known_vector(self):
        """CRC-16/CCITT-FALSE of ASCII '123456789' is 0x29B1.

        Gen2 appends the complement, so the appended bits are ~0x29B1.
        """
        data = b"123456789"
        bits = tuple(
            (byte >> (7 - i)) & 1 for byte in data for i in range(8)
        )
        out = bits_to_int(crc16(bits))
        assert out == (0x29B1 ^ 0xFFFF)

    def test_append_and_check(self):
        payload = tuple([1, 0] * 48)
        assert check_crc16(append_crc16(payload)) == payload

    def test_corruption_detected(self):
        frame = list(append_crc16(tuple([1, 0] * 48)))
        frame[10] ^= 1
        with pytest.raises(CRCError):
            check_crc16(tuple(frame))

    def test_short_frame_rejected(self):
        with pytest.raises(CRCError):
            check_crc16((1,) * 15)

    @given(bit_vectors)
    def test_roundtrip_property(self, payload):
        assert check_crc16(append_crc16(payload)) == payload

    @given(bit_vectors, st.integers(0, 500))
    def test_single_bit_errors_detected(self, payload, position):
        frame = list(append_crc16(payload))
        frame[position % len(frame)] ^= 1
        with pytest.raises(CRCError):
            check_crc16(tuple(frame))

    @given(bit_vectors, st.data())
    def test_burst_errors_detected(self, payload, data):
        """CRC-16 detects all burst errors up to 16 bits long."""
        frame = list(append_crc16(payload))
        start = data.draw(st.integers(0, len(frame) - 1))
        length = data.draw(st.integers(1, min(16, len(frame) - start)))
        pattern = data.draw(
            st.lists(st.integers(0, 1), min_size=length, max_size=length)
        )
        if not any(pattern):
            pattern[0] = 1
        for i, p in enumerate(pattern):
            frame[start + i] ^= p
        with pytest.raises(CRCError):
            check_crc16(tuple(frame))
