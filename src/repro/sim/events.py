"""Per-pose inventory events.

At each pose along the flight, the (relayed) reader runs Gen2 inventory
over whatever tags the relay currently powers. The relay is transparent
to the protocol (paper §3), so this is the ordinary anti-collision MAC
of :mod:`repro.gen2.inventory` — including the relay-embedded reference
RFID, which participates like any other tag and is told apart by its
stored EPC (paper §5.1).
"""

from __future__ import annotations

from typing import Callable, Sequence, Set

import numpy as np

from repro import faults
from repro.errors import CRCError
from repro.gen2.bitops import bits_from_int
from repro.gen2.crc import append_crc16, check_crc16
from repro.gen2.inventory import run_inventory
from repro.hardware.tag import PassiveTag
from repro.obs import metrics, tracing

#: EPC length of the {PC, EPC} reply frames re-validated under injected
#: bit corruption (the standard 96-bit EPC the tags in this sim carry).
_EPC_BITS = 96


def inventory_at_pose(
    tags: Sequence[PassiveTag],
    powered: Callable[[PassiveTag], bool],
    rng: np.random.Generator,
    max_slots: int = 512,
) -> Set[int]:
    """Run one inventory pass; return the EPCs read at this pose.

    ``powered`` models reachability: whether the relay's downlink lights
    each tag at the current drone position. Both inventory targets (A
    then B) are run so that a pose reads every reachable tag regardless
    of the flag state left by the previous pose.
    """
    read: Set[int] = set()
    with tracing.span("sim.inventory", n_tags=len(tags)):
        for target in ("A", "B"):
            result = run_inventory(
                [t.protocol for t in tags],
                rng,
                target=target,
                max_slots=max_slots,
                hears=_wrap_powered(tags, powered),
            )
            read.update(result.epcs)
        if faults.watching("gen2.frame"):
            read = _filter_corrupted_reads(read)
        metrics.count("sim.tags_inventoried", len(read))
    return read


def _filter_corrupted_reads(read: Set[int]) -> Set[int]:
    """Re-validate each read's EPC frame under injected bit corruption.

    With a ``gen2.frame`` fault engaged, every successful read replays
    its {EPC, CRC-16} reply with the corruption hook flipping bits
    *before* :func:`check_crc16` — a corrupted read is rejected by the
    CRC (and counted), never delivered wrong.
    """
    surviving: Set[int] = set()
    for epc in sorted(read):
        frame = append_crc16(bits_from_int(epc, _EPC_BITS))
        frame = faults.corrupt_bits("gen2.frame", frame)
        try:
            check_crc16(frame)
        except CRCError:
            metrics.count("sim.reads_rejected_crc")
            continue
        surviving.add(epc)
    return surviving


def _wrap_powered(tags: Sequence[PassiveTag], powered: Callable[[PassiveTag], bool]):
    """Adapt a PassiveTag predicate to the Gen2Tag objects the MAC sees."""
    by_protocol = {id(t.protocol): t for t in tags}
    return lambda protocol_tag: powered(by_protocol[id(protocol_tag)])
