"""Reader-side inventory MAC: slotted ALOHA with the Gen2 Q algorithm.

A reader inventories a population by opening ``2**Q`` slots per round.
Each slot produces one of three outcomes — idle, single reply (success,
followed by the ACK handshake), or collision — and the Q algorithm
(Gen2 Annex D) adapts Q from the observed outcome mix.

The relay is transparent to all of this (paper §3): it forwards the
queries and replies in the analog domain, so the MAC below runs
unmodified whether or not a relay sits in the middle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ProtocolError
from repro.gen2.bitops import bits_to_int
from repro.gen2.commands import Ack, Query, QueryAdjust, QueryRep
from repro.gen2.crc import check_crc16
from repro.gen2.tag_state import EpcReply, Gen2Tag, Rn16Reply


class SlotOutcome(enum.Enum):
    """What the reader observed in one slot."""

    IDLE = "idle"
    SUCCESS = "success"
    COLLISION = "collision"
    DECODE_ERROR = "decode_error"


class QAlgorithm:
    """The Gen2 Annex-D adaptive Q algorithm.

    Maintains a floating-point ``Qfp``; collisions push it up by C,
    idle slots pull it down by C, successes leave it unchanged. The
    integer Q is the round of Qfp, and a change of integer Q triggers a
    QueryAdjust.
    """

    def __init__(self, initial_q: int = 4, c: float = 0.3) -> None:
        if not 0 <= initial_q <= 15:
            raise ProtocolError(f"initial Q must be 0-15, got {initial_q}")
        if not 0.1 <= c <= 0.5:
            raise ProtocolError(f"C must be within [0.1, 0.5], got {c}")
        self.qfp = float(initial_q)
        self.c = float(c)

    @property
    def q(self) -> int:
        """Current integer slot-count exponent."""
        return int(round(self.qfp))

    def update(self, outcome: SlotOutcome) -> int:
        """Fold in a slot outcome; return the UpDn adjustment (-1/0/+1)."""
        before = self.q
        if outcome == SlotOutcome.COLLISION:
            self.qfp = min(15.0, self.qfp + self.c)
        elif outcome == SlotOutcome.IDLE:
            self.qfp = max(0.0, self.qfp - self.c)
        after = self.q
        return int(np.sign(after - before))


@dataclass
class SlotRecord:
    """One slot of an inventory round, as the reader saw it."""

    outcome: SlotOutcome
    epc: Optional[int] = None
    responders: int = 0


@dataclass
class InventoryRound:
    """The full outcome of one or more rounds over a tag population."""

    epcs: List[int] = field(default_factory=list)
    slots: List[SlotRecord] = field(default_factory=list)
    commands_sent: int = 0
    final_q: int = 0


def _broadcast(
    tags: Sequence[Gen2Tag],
    command,
    hears: Callable[[Gen2Tag], bool],
) -> List[Tuple[Gen2Tag, object]]:
    """Deliver a command to every tag that can hear it; gather replies."""
    replies = []
    for tag in tags:
        if not hears(tag):
            continue
        reply = tag.handle(command)
        if reply is not None:
            replies.append((tag, reply))
    return replies


def run_inventory(
    tags: Sequence[Gen2Tag],
    rng: np.random.Generator,
    session: str = "S0",
    target: str = "A",
    initial_q: int = 4,
    max_slots: int = 4096,
    hears: Optional[Callable[[Gen2Tag], bool]] = None,
    decodes: Optional[Callable[[Gen2Tag], bool]] = None,
    use_query_adjust: bool = True,
) -> InventoryRound:
    """Run inventory rounds until the population is exhausted.

    Parameters
    ----------
    tags:
        The tag population (only powered, in-range tags should be given;
        alternatively pass ``hears`` to model reachability).
    hears:
        Predicate: can this tag hear the reader's (possibly relayed)
        downlink right now? Defaults to "all tags".
    decodes:
        Predicate: given a single uncollided reply, does the reader
        decode it? Models uplink SNR. Defaults to "always".
    use_query_adjust:
        When True, integer-Q changes are applied mid-round via
        QueryAdjust, per the Annex-D strategy.

    Returns
    -------
    InventoryRound
        EPCs read (as integers) and per-slot outcomes.
    """
    hears = hears or (lambda tag: True)
    decodes = decodes or (lambda tag: True)
    qalg = QAlgorithm(initial_q=initial_q)
    result = InventoryRound()

    query = Query(q=qalg.q, session=session, target=target)
    replies = _broadcast(tags, query, hears)
    result.commands_sent += 1

    remaining = lambda: any(
        hears(t) and t.inventoried[session] == target for t in tags
    )
    slots_done = 0
    slots_in_round = 1 << qalg.q
    slot_index = 1

    while slots_done < max_slots:
        slots_done += 1
        record = SlotRecord(outcome=SlotOutcome.IDLE, responders=len(replies))
        if len(replies) == 1:
            tag, rn16_reply = replies[0]
            if isinstance(rn16_reply, Rn16Reply) and decodes(tag):
                ack = Ack(rn16=rn16_reply.rn16)
                result.commands_sent += 1
                epc_replies = _broadcast(tags, ack, hears)
                epc_replies = [
                    (t, r) for t, r in epc_replies if isinstance(r, EpcReply)
                ]
                if len(epc_replies) == 1 and decodes(epc_replies[0][0]):
                    payload = check_crc16(epc_replies[0][1].bits)
                    epc_bits = payload[16:]
                    record.outcome = SlotOutcome.SUCCESS
                    record.epc = bits_to_int(epc_bits)
                    result.epcs.append(record.epc)
                else:
                    record.outcome = SlotOutcome.DECODE_ERROR
            else:
                record.outcome = SlotOutcome.DECODE_ERROR
        elif len(replies) > 1:
            record.outcome = SlotOutcome.COLLISION
        result.slots.append(record)

        if not remaining():
            break

        updn = qalg.update(record.outcome)
        if use_query_adjust and updn != 0:
            adjust = QueryAdjust(session=session, updn=updn)
            replies = _broadcast(tags, adjust, hears)
            result.commands_sent += 1
            slots_in_round = 1 << qalg.q
            slot_index = 1
        elif slot_index >= slots_in_round:
            query = Query(q=qalg.q, session=session, target=target)
            replies = _broadcast(tags, query, hears)
            result.commands_sent += 1
            slots_in_round = 1 << qalg.q
            slot_index = 1
        else:
            rep = QueryRep(session=session)
            replies = _broadcast(tags, rep, hears)
            result.commands_sent += 1
            slot_index += 1

    result.final_q = qalg.q
    return result
