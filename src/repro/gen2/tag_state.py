"""Gen2 tag inventory state machine.

Implements the tag side of the Gen2 inventory protocol: slot-counter
arbitration, RN16 handshake, EPC backscatter, session inventoried flags,
and the SL (selected) flag that Select manipulates. The relay-embedded
reference RFID of the paper (§5.1) is an ordinary instance of this
machine — "it abides by the EPC Gen2 protocol which enables RFly to
naturally avoid collisions" between it and environment tags.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.gen2.bitops import Bits, bits_from_int, bits_to_int, validate_bits
from repro.gen2.commands import Ack, Nak, Query, QueryAdjust, QueryRep, Select
from repro.gen2.crc import append_crc16


class TagState(enum.Enum):
    """Inventory states of the Gen2 tag FSM (the subset inventory uses)."""

    READY = "ready"
    ARBITRATE = "arbitrate"
    REPLY = "reply"
    ACKNOWLEDGED = "acknowledged"


@dataclass(frozen=True)
class Rn16Reply:
    """A tag's 16-bit random handle, backscattered in its slot."""

    rn16: int

    @property
    def bits(self) -> Bits:
        """The reply payload as bits, MSB first."""
        return bits_from_int(self.rn16, 16)


@dataclass(frozen=True)
class EpcReply:
    """A tag's {PC, EPC, CRC-16} reply to a valid ACK."""

    pc: int
    epc: Bits

    @property
    def bits(self) -> Bits:
        """The reply payload as bits, MSB first."""
        return append_crc16(bits_from_int(self.pc, 16) + self.epc)


class Gen2Tag:
    """One tag's protocol engine.

    Parameters
    ----------
    epc:
        The tag's EPC as a bit tuple (96 bits for the Alien Squiggle
        class of tags used in the paper).
    rng:
        Randomness source for slot draws and RN16 generation.
    """

    def __init__(self, epc: Sequence[int], rng: np.random.Generator) -> None:
        self.epc: Bits = validate_bits(epc)
        if len(self.epc) % 16 != 0:
            raise ProtocolError(
                f"EPC length must be a multiple of 16 bits, got {len(self.epc)}"
            )
        self.rng = rng
        # PC word: EPC length in words, in the top 5 bits.
        self.pc = (len(self.epc) // 16) << 11
        self.state = TagState.READY
        self.slot = 0
        self.rn16 = 0
        self.selected = False  # SL flag
        self.inventoried: Dict[str, str] = {s: "A" for s in ("S0", "S1", "S2", "S3")}
        self._session = "S0"
        self._q = 0

    # -- helpers -----------------------------------------------------------

    def _matches_select(self, command: Select) -> bool:
        if command.membank != "EPC":
            return False
        start = command.pointer - 0x20  # EPC memory starts after CRC+PC
        if start < 0 or start + len(command.mask) > len(self.epc):
            return False
        return self.epc[start : start + len(command.mask)] == command.mask

    def _matches_query_criteria(self, query: Query) -> bool:
        if query.sel == 2 and self.selected:
            return False
        if query.sel == 3 and not self.selected:
            return False
        return self.inventoried[query.session] == query.target

    def _draw_slot(self) -> Optional[Rn16Reply]:
        self.slot = int(self.rng.integers(0, 1 << self._q)) if self._q else 0
        if self.slot == 0:
            self.rn16 = int(self.rng.integers(0, 1 << 16))
            self.state = TagState.REPLY
            return Rn16Reply(self.rn16)
        self.state = TagState.ARBITRATE
        return None

    # -- the FSM ---------------------------------------------------------------

    def handle(self, command) -> Optional[object]:
        """Process a reader command; return a reply or None.

        The return value is :class:`Rn16Reply`, :class:`EpcReply`, or
        ``None`` when the tag stays silent.
        """
        if isinstance(command, Select):
            return self._handle_select(command)
        if isinstance(command, Query):
            return self._handle_query(command)
        if isinstance(command, QueryRep):
            return self._handle_query_rep(command)
        if isinstance(command, QueryAdjust):
            return self._handle_query_adjust(command)
        if isinstance(command, Ack):
            return self._handle_ack(command)
        if isinstance(command, Nak):
            return self._handle_nak()
        raise ProtocolError(f"tag cannot handle {type(command).__name__}")

    def _handle_select(self, command: Select) -> None:
        matched = self._matches_select(command)
        # Action table (Gen2 Table 6.29), applied to SL or inventoried:
        #   action 0: assert/deassert   4: deassert/assert
        #   action 1: assert/nothing    5: deassert/nothing
        #   action 2: nothing/deassert  6: nothing/assert
        #   action 3: toggle/nothing    7: nothing/toggle
        assert_actions = {0: matched, 1: matched, 4: not matched, 6: not matched}
        deassert_actions = {0: not matched, 2: not matched, 4: matched, 5: matched}
        toggle_actions = {3: matched, 7: not matched}
        if command.target == "SL":
            if assert_actions.get(command.action, False):
                self.selected = True
            elif deassert_actions.get(command.action, False):
                self.selected = False
            elif toggle_actions.get(command.action, False):
                self.selected = not self.selected
        else:
            flags = self.inventoried
            if assert_actions.get(command.action, False):
                flags[command.target] = "A"
            elif deassert_actions.get(command.action, False):
                flags[command.target] = "B"
            elif toggle_actions.get(command.action, False):
                flags[command.target] = (
                    "B" if flags[command.target] == "A" else "A"
                )
        self.state = TagState.READY
        return None

    def _handle_query(self, query: Query) -> Optional[Rn16Reply]:
        # A new round: an acknowledged tag first toggles its flag.
        if self.state == TagState.ACKNOWLEDGED:
            self._toggle_inventoried()
        self._session = query.session
        self._q = query.q
        if not self._matches_query_criteria(query):
            self.state = TagState.READY
            return None
        return self._draw_slot()

    def _handle_query_rep(self, command: QueryRep) -> Optional[Rn16Reply]:
        if command.session != self._session:
            return None
        if self.state == TagState.ACKNOWLEDGED:
            self._toggle_inventoried()
            self.state = TagState.READY
            return None
        if self.state != TagState.ARBITRATE:
            if self.state == TagState.REPLY:
                # Our RN16 went unacknowledged: return to arbitration.
                self.state = TagState.ARBITRATE
                self.slot = 1 << 15  # effectively out of this round
            return None
        self.slot -= 1
        if self.slot == 0:
            self.rn16 = int(self.rng.integers(0, 1 << 16))
            self.state = TagState.REPLY
            return Rn16Reply(self.rn16)
        return None

    def _handle_query_adjust(self, command: QueryAdjust) -> Optional[Rn16Reply]:
        if command.session != self._session:
            return None
        if self.state == TagState.ACKNOWLEDGED:
            self._toggle_inventoried()
            self.state = TagState.READY
            return None
        if self.state not in (TagState.ARBITRATE, TagState.REPLY):
            return None
        self._q = int(np.clip(self._q + command.updn, 0, 15))
        return self._draw_slot()

    def _handle_ack(self, command: Ack) -> Optional[EpcReply]:
        if self.state == TagState.REPLY and command.rn16 == self.rn16:
            self.state = TagState.ACKNOWLEDGED
            return EpcReply(self.pc, self.epc)
        if self.state in (TagState.REPLY, TagState.ACKNOWLEDGED):
            # Wrong RN16: back to arbitration per the spec.
            if command.rn16 != self.rn16:
                self.state = TagState.ARBITRATE
                self.slot = 1 << 15
                return None
            # Re-ACK of an acknowledged tag re-sends the EPC.
            return EpcReply(self.pc, self.epc)
        return None

    def _handle_nak(self) -> None:
        if self.state != TagState.READY:
            self.state = TagState.ARBITRATE
            self.slot = 1 << 15
        return None

    def _toggle_inventoried(self) -> None:
        flag = self.inventoried[self._session]
        self.inventoried[self._session] = "B" if flag == "A" else "A"

    # -- introspection -------------------------------------------------------

    @property
    def epc_int(self) -> int:
        """The EPC as an integer (convenient dictionary key)."""
        return bits_to_int(self.epc)

    def power_reset(self) -> None:
        """Model a loss of power: volatile inventory state resets.

        Session S0 inventoried flags are volatile and reset to A; SL and
        S2/S3 flags have persistence times we conservatively keep.
        """
        self.state = TagState.READY
        self.slot = 0
        self.rn16 = 0
        self.inventoried["S0"] = "A"
