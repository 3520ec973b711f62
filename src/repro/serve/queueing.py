"""Bounded per-session queues and admission control.

Every pending update sits in exactly one session's
:class:`BoundedBuffer`. The bound is the backpressure contract: when a
session's buffer is full the new arrival is *shed at ingest* and the
caller is told so (:class:`Admission`), rather than growing an
unbounded queue that converts overload into unbounded latency. This
module is why ``repro/serve/`` is the one place reprolint's O502 rule
permits raw ``deque`` construction — the bound lives here, enforced
explicitly, with the shed path instrumented.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

import numpy as np

from repro.errors import ConfigurationError


class Admission(enum.Enum):
    """What happened to a submitted update at the queue boundary."""

    ACCEPTED = "accepted"
    SHED = "shed"
    REJECTED = "rejected"
    """Refused by a recovery policy (retries exhausted, reference lost)
    rather than by queue capacity — always counted, never silent."""


@dataclass(frozen=True)
class PendingUpdate:
    """One ingested, disentangled pose waiting to be folded in.

    ``channel`` is the isolated relay-tag half-link (Eq. 10) — the
    division happens at ingest so a micro-batch is a pure vectorized
    grid projection.
    """

    position: np.ndarray
    channel: complex
    arrival_s: float
    seq: int
    #: Serving relay's name (``""`` when the read names none); a
    #: change between consecutive staged updates is a session handoff.
    relay: str = ""


class BoundedBuffer:
    """FIFO of pending updates with a hard capacity.

    ``deque`` is deliberately constructed without ``maxlen``: a maxlen
    deque silently drops from the head (oldest first), which would shed
    the *wrong* end and hide the drop from the caller. Admission is
    checked explicitly in :meth:`offer` so every shed is counted and
    reported.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"queue capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._items: Deque[PendingUpdate] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def oldest_arrival_s(self) -> Optional[float]:
        """Arrival time of the head update, or ``None`` when empty."""
        return self._items[0].arrival_s if self._items else None

    def offer(self, update: PendingUpdate) -> Admission:
        """Admit or shed one update against the capacity bound."""
        if len(self._items) >= self.capacity:
            return Admission.SHED
        self._items.append(update)
        return Admission.ACCEPTED

    def take(self, limit: int) -> List[PendingUpdate]:
        """Pop up to ``limit`` updates in FIFO order."""
        if limit < 1:
            return []
        taken: List[PendingUpdate] = []
        while self._items and len(taken) < limit:
            taken.append(self._items.popleft())
        return taken
