"""Gen2 reader command frames.

The paper's USRP reader "handles a variety of commands including the
Query command, ACK command, Select command, and QueryRep command"
(§6.3); QueryAdjust and NAK complete the inventory set. Each command
knows its bit layout, its CRC protection, and whether it is sent with the
full Query preamble or a frame-sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence, Union

from repro.errors import ProtocolError
from repro.gen2.bitops import Bits, bits_from_int, bits_to_int, validate_bits
from repro.gen2.crc import append_crc16, check_crc16, check_crc5, crc5

DR_CODES = {8.0: 0, 64.0 / 3.0: 1}
MILLER_CODES = {1: 0, 2: 1, 4: 2, 8: 3}
SESSIONS = ("S0", "S1", "S2", "S3")
TARGETS = ("A", "B")
SELECT_TARGETS = ("S0", "S1", "S2", "S3", "SL")
MEMORY_BANKS = ("RFU", "EPC", "TID", "USER")


@dataclass(frozen=True)
class Query:
    """Query: starts an inventory round with 2**q slots.

    Fields follow the spec order: command code 1000, DR, M, TRext, Sel,
    Session, Target, Q, CRC-5.
    """

    COMMAND_CODE: ClassVar[Bits] = (1, 0, 0, 0)
    PREAMBLE: ClassVar[bool] = True

    q: int = 4
    dr: float = 64.0 / 3.0
    miller_m: int = 1
    trext: bool = False
    sel: int = 0  # 00 all, 01 all, 10 ~SL, 11 SL
    session: str = "S0"
    target: str = "A"

    def __post_init__(self) -> None:
        if not 0 <= self.q <= 15:
            raise ProtocolError(f"Q must be 0-15, got {self.q}")
        if self.dr not in DR_CODES:
            raise ProtocolError(f"DR must be 8 or 64/3, got {self.dr}")
        if self.miller_m not in MILLER_CODES:
            raise ProtocolError(f"M must be one of {sorted(MILLER_CODES)}")
        if self.sel not in (0, 1, 2, 3):
            raise ProtocolError(f"Sel must be 0-3, got {self.sel}")
        if self.session not in SESSIONS:
            raise ProtocolError(f"session must be one of {SESSIONS}")
        if self.target not in TARGETS:
            raise ProtocolError(f"target must be A or B, got {self.target}")

    def to_bits(self) -> Bits:
        """Serialize the command to its over-the-air bits."""
        body = (
            self.COMMAND_CODE
            + bits_from_int(DR_CODES[self.dr], 1)
            + bits_from_int(MILLER_CODES[self.miller_m], 2)
            + bits_from_int(int(self.trext), 1)
            + bits_from_int(self.sel, 2)
            + bits_from_int(SESSIONS.index(self.session), 2)
            + bits_from_int(TARGETS.index(self.target), 1)
            + bits_from_int(self.q, 4)
        )
        return body + crc5(body)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Query":
        """Parse a received frame into this command type."""
        bits = validate_bits(bits)
        if len(bits) != 22:
            raise ProtocolError(f"Query must be 22 bits, got {len(bits)}")
        body = check_crc5(bits)
        if body[:4] != cls.COMMAND_CODE:
            raise ProtocolError("not a Query frame")
        dr = next(k for k, v in DR_CODES.items() if v == body[4])
        miller = next(k for k, v in MILLER_CODES.items() if v == bits_to_int(body[5:7]))
        return cls(
            q=bits_to_int(body[13:17]),
            dr=dr,
            miller_m=miller,
            trext=bool(body[7]),
            sel=bits_to_int(body[8:10]),
            session=SESSIONS[bits_to_int(body[10:12])],
            target=TARGETS[body[12]],
        )


@dataclass(frozen=True)
class QueryRep:
    """QueryRep: advances to the next slot of the round."""

    COMMAND_CODE: ClassVar[Bits] = (0, 0)
    PREAMBLE: ClassVar[bool] = False

    session: str = "S0"

    def __post_init__(self) -> None:
        if self.session not in SESSIONS:
            raise ProtocolError(f"session must be one of {SESSIONS}")

    def to_bits(self) -> Bits:
        """Serialize the command to its over-the-air bits."""
        return self.COMMAND_CODE + bits_from_int(SESSIONS.index(self.session), 2)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "QueryRep":
        """Parse a received frame into this command type."""
        bits = validate_bits(bits)
        if len(bits) != 4 or bits[:2] != cls.COMMAND_CODE:
            raise ProtocolError("not a QueryRep frame")
        return cls(session=SESSIONS[bits_to_int(bits[2:4])])


@dataclass(frozen=True)
class QueryAdjust:
    """QueryAdjust: nudges Q up/down and restarts the round."""

    COMMAND_CODE: ClassVar[Bits] = (1, 0, 0, 1)
    PREAMBLE: ClassVar[bool] = False

    session: str = "S0"
    updn: int = 0  # +1, 0, or -1

    _UPDN_CODES: ClassVar[dict] = {1: (1, 1, 0), 0: (0, 0, 0), -1: (0, 1, 1)}

    def __post_init__(self) -> None:
        if self.session not in SESSIONS:
            raise ProtocolError(f"session must be one of {SESSIONS}")
        if self.updn not in self._UPDN_CODES:
            raise ProtocolError(f"updn must be -1, 0 or +1, got {self.updn}")

    def to_bits(self) -> Bits:
        """Serialize the command to its over-the-air bits."""
        return (
            self.COMMAND_CODE
            + bits_from_int(SESSIONS.index(self.session), 2)
            + self._UPDN_CODES[self.updn]
        )

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "QueryAdjust":
        """Parse a received frame into this command type."""
        bits = validate_bits(bits)
        if len(bits) != 9 or bits[:4] != cls.COMMAND_CODE:
            raise ProtocolError("not a QueryAdjust frame")
        updn_bits = bits[6:9]
        updn = next(
            (k for k, v in cls._UPDN_CODES.items() if v == updn_bits), None
        )
        if updn is None:
            raise ProtocolError(f"invalid UpDn code {updn_bits}")
        return cls(session=SESSIONS[bits_to_int(bits[4:6])], updn=updn)


@dataclass(frozen=True)
class Ack:
    """ACK: echoes a tag's RN16 to request its {PC, EPC, CRC-16}."""

    COMMAND_CODE: ClassVar[Bits] = (0, 1)
    PREAMBLE: ClassVar[bool] = False

    rn16: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.rn16 < (1 << 16):
            raise ProtocolError(f"RN16 must be a 16-bit value, got {self.rn16}")

    def to_bits(self) -> Bits:
        """Serialize the command to its over-the-air bits."""
        return self.COMMAND_CODE + bits_from_int(self.rn16, 16)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Ack":
        """Parse a received frame into this command type."""
        bits = validate_bits(bits)
        if len(bits) != 18 or bits[:2] != cls.COMMAND_CODE:
            raise ProtocolError("not an ACK frame")
        return cls(rn16=bits_to_int(bits[2:]))


@dataclass(frozen=True)
class Nak:
    """NAK: returns all tags in the round to Arbitrate."""

    COMMAND_CODE: ClassVar[Bits] = (1, 1, 0, 0, 0, 0, 0, 0)
    PREAMBLE: ClassVar[bool] = False

    def to_bits(self) -> Bits:
        """Serialize the command to its over-the-air bits."""
        return self.COMMAND_CODE

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Nak":
        """Parse a received frame into this command type."""
        bits = validate_bits(bits)
        if tuple(bits) != cls.COMMAND_CODE:
            raise ProtocolError("not a NAK frame")
        return cls()


@dataclass(frozen=True)
class Select:
    """Select: marks a tag sub-population by a memory mask.

    RFly's reader uses Select to single out specific tags (for instance
    the relay-embedded reference RFID) before an inventory round.
    """

    COMMAND_CODE: ClassVar[Bits] = (1, 0, 1, 0)
    PREAMBLE: ClassVar[bool] = False

    target: str = "SL"
    action: int = 0
    membank: str = "EPC"
    pointer: int = 0x20  # EPC memory: skip CRC+PC words
    mask: Bits = ()
    truncate: bool = False

    def __post_init__(self) -> None:
        if self.target not in SELECT_TARGETS:
            raise ProtocolError(f"target must be one of {SELECT_TARGETS}")
        if not 0 <= self.action <= 7:
            raise ProtocolError(f"action must be 0-7, got {self.action}")
        if self.membank not in MEMORY_BANKS:
            raise ProtocolError(f"membank must be one of {MEMORY_BANKS}")
        if not 0 <= self.pointer < (1 << 8):
            raise ProtocolError("pointer must fit the single-byte EBV used here")
        if len(self.mask) > 255:
            raise ProtocolError(f"mask of {len(self.mask)} bits exceeds 255")
        object.__setattr__(self, "mask", validate_bits(self.mask))

    def to_bits(self) -> Bits:
        """Serialize the command to its over-the-air bits."""
        body = (
            self.COMMAND_CODE
            + bits_from_int(SELECT_TARGETS.index(self.target), 3)
            + bits_from_int(self.action, 3)
            + bits_from_int(MEMORY_BANKS.index(self.membank), 2)
            + bits_from_int(self.pointer, 8)  # single-byte EBV
            + bits_from_int(len(self.mask), 8)
            + self.mask
            + bits_from_int(int(self.truncate), 1)
        )
        return append_crc16(body)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "Select":
        """Parse a received frame into this command type."""
        body = check_crc16(bits)
        if body[:4] != cls.COMMAND_CODE:
            raise ProtocolError("not a Select frame")
        mask_length = bits_to_int(body[20:28])
        expected = 28 + mask_length + 1
        if len(body) != expected:
            raise ProtocolError(
                f"Select length {len(body)} != expected {expected}"
            )
        return cls(
            target=SELECT_TARGETS[bits_to_int(body[4:7])],
            action=bits_to_int(body[7:10]),
            membank=MEMORY_BANKS[bits_to_int(body[10:12])],
            pointer=bits_to_int(body[12:20]),
            mask=body[28 : 28 + mask_length],
            truncate=bool(body[-1]),
        )


#: Any Gen2 reader command this module can encode or parse.
Command = Union[Query, QueryRep, QueryAdjust, Ack, Nak, Select]

_COMMAND_CODES = (
    (Query.COMMAND_CODE, Query, 22),
    (QueryAdjust.COMMAND_CODE, QueryAdjust, 9),
    (Select.COMMAND_CODE, Select, None),
    (Nak.COMMAND_CODE, Nak, 8),
    (Ack.COMMAND_CODE, Ack, 18),
    (QueryRep.COMMAND_CODE, QueryRep, 4),
)


def parse_command(bits: Sequence[int]) -> Command:
    """Parse a received bit vector into the matching command object.

    Command codes are prefix-free once length is considered; candidates
    are tried longest-code first so Query (1000) wins over ACK (01) etc.
    """
    bits = validate_bits(bits)
    for code, cls, length in _COMMAND_CODES:
        if len(bits) >= len(code) and bits[: len(code)] == code:
            if length is not None and len(bits) != length:
                continue
            return cls.from_bits(bits)
    raise ProtocolError(f"unrecognized command of {len(bits)} bits")
