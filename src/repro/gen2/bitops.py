"""Bit-vector helpers shared by the Gen2 codecs.

Bits are represented as tuples of ints (0/1), most-significant bit first,
matching the over-the-air ordering of the Gen2 specification.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.errors import EncodingError

Bits = Tuple[int, ...]


def validate_bits(bits: Iterable[int]) -> Bits:
    """Return ``bits`` as a tuple, checking every element is 0 or 1."""
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise EncodingError(f"bit vector contains non-binary values: {out[:16]}...")
    return out


def bits_from_int(value: int, width: int) -> Bits:
    """Big-endian bit expansion of ``value`` into exactly ``width`` bits."""
    if width < 0:
        raise EncodingError(f"width must be >= 0, got {width}")
    if value < 0 or value >= (1 << width):
        raise EncodingError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def bits_to_int(bits: Sequence[int]) -> int:
    """Big-endian interpretation of a bit vector as an unsigned integer."""
    value = 0
    for b in validate_bits(bits):
        value = (value << 1) | b
    return value
