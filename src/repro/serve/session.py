"""Per-tag sessions and the TTL/checkpoint session store.

A :class:`TagSession` owns two incremental accumulators over the same
extent: the *full* session grid and a *degraded* grid
``degraded_resolution_factor`` times coarser. Every update always lands
in the degraded accumulator (it is cheap and keeps the quick estimate
complete); FULL-mode batches also land in the full accumulator, while
DEGRADED-mode batches defer that fold-in to a lag list. Because the
coherent sum is linear, catching up later is *exact* — degradation
trades estimate resolution now for zero accuracy loss at finalize.

The :class:`SessionStore` bounds live sessions, evicts quiesced ones
after a TTL, and (when given a :class:`repro.runtime.ResultCache`)
checkpoints evicted state so a later submit transparently restores the
session — the same content-addressed atomic-write cache the sweep
engine uses for task payloads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServeError, SessionNotFoundError
from repro.localization.batched import PoseBlock
from repro.localization.grid import Grid2D
from repro.localization.incremental import (
    IncrementalSar,
    combined_coarse,
    finalize_segments,
)
from repro.localization.pipeline import LocalizationResult
from repro.obs import metrics
from repro.runtime.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.queueing import Admission, BoundedBuffer, PendingUpdate


def _checkpoint_key(session_id: str) -> str:
    """Content address of one session's checkpoint payload."""
    material = f"serve-session:{session_id}".encode("utf-8")
    return hashlib.sha256(material).hexdigest()


@dataclass
class SessionStats:
    """Ingest/apply counters for one session."""

    accepted: int = 0
    shed: int = 0
    applied_full: int = 0
    applied_degraded: int = 0
    caught_up: int = 0


def _degraded_grid(grid: Grid2D, factor: float) -> Grid2D:
    """The coarse fallback grid: same extent, ``factor`` x resolution."""
    resolution = min(
        grid.resolution * factor,
        (grid.x_max - grid.x_min) / 2.0,
        (grid.y_max - grid.y_min) / 2.0,
    )
    return Grid2D(
        x_min=grid.x_min,
        x_max=grid.x_max,
        y_min=grid.y_min,
        y_max=grid.y_max,
        resolution=resolution,
    )


class TagSession:
    """Streaming localization state for one tag."""

    def __init__(
        self,
        session_id: str,
        config: ServeConfig,
        grid: Grid2D,
        opened_s: float = 0.0,
    ) -> None:
        self.session_id = str(session_id)
        self.config = config
        self.grid = grid
        self.opened_s = float(opened_s)
        self.last_seen_s = float(opened_s)
        self.pending = BoundedBuffer(config.queue_capacity)
        self.stats = SessionStats()
        self.full = self._fresh_full()
        self.degraded = self._fresh_degraded()
        self._lag: List[Tuple[np.ndarray, np.ndarray]] = []
        self._lag_poses = 0
        #: Degradation-ladder transition log: ``(applied_before, mode)``
        #: per mode change, keyed by the session-local applied-update
        #: count so the log is invariant to how sessions are sharded.
        self.ladder: List[Tuple[int, str]] = []
        #: Which fleet relay the *active* accumulators belong to. None
        #: until the first staged update; the single-relay paths tag
        #: updates with ``relay=""``, which is a legal (constant) name,
        #: so legacy sessions stay on one segment forever.
        self.active_relay: Optional[str] = None
        #: Relay named by the most recently *ingested* update (the
        #: ``relay.handoff`` fault site triggers on changes here).
        self.last_ingest_relay: Optional[str] = None
        #: Completed segment switches (one per serving-relay change).
        self.handoffs = 0
        #: Archived per-relay segments: phase disentanglement leaves a
        #: per-relay constant phase in every channel, so accumulators
        #: must never sum coherently across relays — each relay keeps
        #: its own (full, degraded, lag) triple, swapped in on handoff.
        self._archive: Dict[str, Dict[str, Any]] = {}

    def _fresh_full(self) -> IncrementalSar:
        return IncrementalSar(
            self.config.frequency_hz,
            self.grid,
            chunk_nodes=self.config.chunk_nodes,
            fine_resolution=self.config.fine_resolution,
            fine_span=self.config.fine_span,
            relative_threshold=self.config.relative_threshold,
            use_nearest_peak_rule=self.config.use_nearest_peak_rule,
        )

    def _fresh_degraded(self) -> IncrementalSar:
        return IncrementalSar(
            self.config.frequency_hz,
            _degraded_grid(
                self.grid, self.config.degraded_resolution_factor
            ),
            chunk_nodes=self.config.chunk_nodes,
            fine_resolution=min(
                self.config.fine_resolution, self.grid.resolution
            ),
            fine_span=self.config.fine_span,
            relative_threshold=self.config.relative_threshold,
            use_nearest_peak_rule=self.config.use_nearest_peak_rule,
        )

    # -- ingest ------------------------------------------------------------------

    def offer(self, update: PendingUpdate, now_s: float) -> Admission:
        """Admit or shed one arrival; touches the TTL clock either way."""
        self.last_seen_s = max(self.last_seen_s, float(now_s))
        admission = self.pending.offer(update)
        if admission is Admission.ACCEPTED:
            self.stats.accepted += 1
        else:
            self.stats.shed += 1
        return admission

    # -- scheduler-facing state --------------------------------------------------

    @property
    def lag_poses(self) -> int:
        """Deferred full-resolution poses awaiting catch-up.

        Active segment only — this is the scheduler-facing catch-up
        budget, and only the active segment's lag can grow; archived
        segments drain at finalize (see :attr:`total_lag_poses`).
        """
        return self._lag_poses

    @property
    def total_lag_poses(self) -> int:
        """Deferred poses across the active *and* archived segments."""
        return self._lag_poses + sum(
            segment["lag_poses"] for segment in self._archive.values()
        )

    @property
    def full_nodes(self) -> int:
        """Projection cost (nodes) of one pose on the full grid."""
        return self.full.n_nodes

    @property
    def degraded_nodes(self) -> int:
        """Projection cost (nodes) of one pose on the degraded grid."""
        return self.degraded.n_nodes

    # -- applying work -----------------------------------------------------------

    def _record_mode(self, degraded: bool) -> None:
        """Log a ladder transition (FULL <-> DEGRADED), if one happened.

        The position key is the session-local applied-update count
        *before* this batch — never a service-global sequence number,
        which would vary with how sessions are packed onto shards.
        """
        mode = "degraded" if degraded else "full"
        if not self.ladder or self.ladder[-1][1] != mode:
            applied = self.stats.applied_full + self.stats.applied_degraded
            self.ladder.append((applied, mode))

    def _switch_segment(self, relay: str) -> None:
        """Swap the active accumulator triple for ``relay``'s segment.

        The outgoing segment (accumulators *and* its undrained lag) is
        parked in the archive under its relay name; the incoming relay
        resumes its own archived segment if it served this tag before,
        or starts fresh. Nothing is ever summed across the swap — the
        per-relay constant phase makes cross-relay coherent sums
        meaningless (see :func:`~repro.localization.incremental.
        combined_coarse`).
        """
        assert self.active_relay is not None
        self._archive[self.active_relay] = {
            "full": self.full,
            "degraded": self.degraded,
            "lag": self._lag,
            "lag_poses": self._lag_poses,
        }
        resumed = self._archive.pop(relay, None)
        if resumed is not None:
            self.full = resumed["full"]
            self.degraded = resumed["degraded"]
            self._lag = resumed["lag"]
            self._lag_poses = resumed["lag_poses"]
        else:
            self.full = self._fresh_full()
            self.degraded = self._fresh_degraded()
            self._lag = []
            self._lag_poses = 0
        self.active_relay = relay
        self.handoffs += 1
        metrics.count("serve.session.handoffs")

    def stage_batch(
        self, updates: Sequence[PendingUpdate], degraded: bool
    ) -> List[PoseBlock]:
        """Bookkeep one planned micro-batch and stage its folds.

        Performs every side effect of :meth:`apply_batch` *except* the
        accumulator arithmetic, which it returns as
        :class:`~repro.localization.batched.PoseBlock` entries for the
        round's single stacked kernel call. FULL mode stages both
        accumulators; DEGRADED mode stages only the cheap one and
        defers the full-resolution fold-in to the lag list.

        A batch mixing updates from several relays is split into
        contiguous same-relay runs (FIFO order preserved); each relay
        change between runs is a session handoff that swaps the active
        segment. Single-relay traffic carries a constant relay name
        (``""`` from the legacy paths), so it always forms one run and
        takes the exact pre-fleet staging path.
        """
        if not updates:
            return []
        blocks: List[PoseBlock] = []
        start = 0
        for end in range(1, len(updates) + 1):
            if (
                end < len(updates)
                and updates[end].relay == updates[start].relay
            ):
                continue
            blocks.extend(self._stage_run(updates[start:end], degraded))
            start = end
        return blocks

    def _stage_run(
        self, updates: Sequence[PendingUpdate], degraded: bool
    ) -> List[PoseBlock]:
        """Stage one contiguous same-relay run, handing off if needed."""
        relay = updates[0].relay
        if self.active_relay is None:
            self.active_relay = relay
        elif relay != self.active_relay:
            self._switch_segment(relay)
        positions = np.stack([u.position for u in updates])
        channels = np.array([u.channel for u in updates], dtype=complex)
        self._record_mode(degraded)
        blocks = [PoseBlock(self.degraded, positions, channels)]
        if degraded:
            self._lag.append((positions, channels))
            self._lag_poses += len(updates)
            self.stats.applied_degraded += len(updates)
        else:
            blocks.append(PoseBlock(self.full, positions, channels))
            self.stats.applied_full += len(updates)
        return blocks

    def apply_batch(
        self, updates: Sequence[PendingUpdate], degraded: bool
    ) -> int:
        """Fold one micro-batch in; returns grid nodes projected.

        The scalar reference: stages the batch and executes each fold
        through the session's own accumulators inline. The service
        instead folds a whole round's staged blocks in one stacked
        kernel call; tests pin the two bit for bit.
        """
        projected = 0
        for block in self.stage_batch(updates, degraded):
            projected += block.target.update(block.positions, block.channels)
        return projected

    def stage_catchup(
        self, max_poses: Optional[int] = None
    ) -> List[PoseBlock]:
        """Pop deferred poses off the lag list and stage their folds.

        ``max_poses`` bounds the work (scheduler budget); ``None``
        drains the whole lag (finalize / idle). Bookkeeping happens
        here; the returned blocks carry the actual arithmetic.
        """
        blocks: List[PoseBlock] = []
        caught = 0
        while self._lag and (max_poses is None or caught < max_poses):
            positions, channels = self._lag[0]
            budget = len(positions)
            if max_poses is not None:
                budget = min(budget, max_poses - caught)
            if budget < len(positions):
                head_positions, head_channels = (
                    positions[:budget],
                    channels[:budget],
                )
                self._lag[0] = (positions[budget:], channels[budget:])
            else:
                head_positions, head_channels = positions, channels
                self._lag.pop(0)
            blocks.append(PoseBlock(self.full, head_positions, head_channels))
            caught += len(head_positions)
        self._lag_poses -= caught
        self.stats.caught_up += caught
        return blocks

    def catch_up(self, max_poses: Optional[int] = None) -> int:
        """Fold deferred poses into the full accumulator; returns nodes.

        The scalar counterpart of :meth:`stage_catchup`, folding each
        staged block inline.
        """
        projected = 0
        for block in self.stage_catchup(max_poses):
            projected += block.target.update(block.positions, block.channels)
        return projected

    # -- readout -----------------------------------------------------------------

    def estimate(self) -> np.ndarray:
        """The freshest complete estimate (coarse argmax, no fine stage).

        The full accumulator wins when it has seen everything; while it
        lags (degraded mode), the degraded accumulator — which always
        sees every pose — answers instead. With archived segments the
        degraded accumulators of *all* segments (each complete for its
        relay's poses) combine noncoherently; without any archive this
        is byte-for-byte the single-relay readout.
        """
        if not self._archive:
            if self._lag_poses == 0 and self.full.n_poses > 0:
                return self.full.estimate()
            return self.degraded.estimate()
        segments = [self.degraded] + [
            entry["degraded"] for entry in self._archive.values()
        ]
        return combined_coarse(segments).argmax_position()

    def finalize(self) -> LocalizationResult:
        """Catch up in full and run the batch-equivalent fine stage.

        Archived segments drain their own lag lists first (each into
        its own full accumulator — the fold is linear per segment, so
        deferral costs nothing), then all full segments combine through
        the noncoherent fine stage. One segment means the exact
        single-relay finalize path.
        """
        self.catch_up(None)
        for entry in self._archive.values():
            for positions, channels in entry["lag"]:
                entry["full"].update(positions, channels)
                self.stats.caught_up += len(positions)
            entry["lag"] = []
            entry["lag_poses"] = 0
        segments = [self.full] + [
            entry["full"] for entry in self._archive.values()
        ]
        return finalize_segments(segments)

    # -- checkpointing -----------------------------------------------------------

    def checkpoint_payload(self) -> Dict[str, Any]:
        """A picklable snapshot of everything but the pending queue.

        Only quiesced sessions (empty queue) are checkpointed, so the
        queue is deliberately absent from the payload.
        """
        return {
            "session_id": self.session_id,
            "opened_s": self.opened_s,
            "last_seen_s": self.last_seen_s,
            "full": self.full.to_payload(),
            "degraded": self.degraded.to_payload(),
            "lag": [(p.copy(), c.copy()) for p, c in self._lag],
            "ladder": [tuple(entry) for entry in self.ladder],
            "active_relay": self.active_relay,
            "last_ingest_relay": self.last_ingest_relay,
            "handoffs": self.handoffs,
            "archive": {
                relay: {
                    "full": entry["full"].to_payload(),
                    "degraded": entry["degraded"].to_payload(),
                    "lag": [
                        (p.copy(), c.copy()) for p, c in entry["lag"]
                    ],
                }
                for relay, entry in self._archive.items()
            },
            "stats": {
                "accepted": self.stats.accepted,
                "shed": self.stats.shed,
                "applied_full": self.stats.applied_full,
                "applied_degraded": self.stats.applied_degraded,
                "caught_up": self.stats.caught_up,
            },
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], config: ServeConfig
    ) -> "TagSession":
        """Rebuild a session from :meth:`checkpoint_payload` output."""
        full = IncrementalSar.from_payload(payload["full"])
        session = cls(
            payload["session_id"],
            config,
            full.grid,
            opened_s=payload["opened_s"],
        )
        session.full = full
        session.degraded = IncrementalSar.from_payload(payload["degraded"])
        session.last_seen_s = float(payload["last_seen_s"])
        session._lag = [
            (np.asarray(p, dtype=float), np.asarray(c, dtype=complex))
            for p, c in payload["lag"]
        ]
        session._lag_poses = sum(len(p) for p, _ in session._lag)
        session.ladder = [
            (int(applied), str(mode))
            for applied, mode in payload.get("ladder", [])
        ]
        # Fleet keys are read with defaults so pre-fleet checkpoints
        # (no handoff state) restore unchanged.
        raw_relay = payload.get("active_relay")
        session.active_relay = (
            None if raw_relay is None else str(raw_relay)
        )
        raw_ingest = payload.get("last_ingest_relay")
        session.last_ingest_relay = (
            None if raw_ingest is None else str(raw_ingest)
        )
        session.handoffs = int(payload.get("handoffs", 0))
        for relay, entry in payload.get("archive", {}).items():
            lag = [
                (np.asarray(p, dtype=float), np.asarray(c, dtype=complex))
                for p, c in entry["lag"]
            ]
            session._archive[str(relay)] = {
                "full": IncrementalSar.from_payload(entry["full"]),
                "degraded": IncrementalSar.from_payload(entry["degraded"]),
                "lag": lag,
                "lag_poses": sum(len(p) for p, _ in lag),
            }
        session.stats = SessionStats(**payload["stats"])
        return session


class SessionStore:
    """Live sessions with TTL eviction and checkpoint/restore."""

    def __init__(
        self, config: ServeConfig, cache: Optional[ResultCache] = None
    ) -> None:
        self.config = config
        self.cache = cache
        self._sessions: Dict[str, TagSession] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def ids(self) -> List[str]:
        """Live session ids (insertion order)."""
        return list(self._sessions)

    def sessions(self) -> Dict[str, TagSession]:
        """The live session mapping (shared, not a copy)."""
        return self._sessions

    def open(
        self, session_id: str, grid: Grid2D, now_s: float = 0.0
    ) -> TagSession:
        """Create a fresh session under ``session_id``."""
        if session_id in self._sessions:
            raise ServeError(f"session {session_id!r} is already open")
        if len(self._sessions) >= self.config.max_sessions:
            raise ServeError(
                f"session limit reached ({self.config.max_sessions}); "
                "finalize or wait for TTL eviction"
            )
        session = TagSession(session_id, self.config, grid, opened_s=now_s)
        self._sessions[session_id] = session
        metrics.set_gauge("serve.sessions.active", len(self._sessions))
        return session

    def get(self, session_id: str) -> TagSession:
        """The live session, or :class:`SessionNotFoundError`."""
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFoundError(
                f"no live session {session_id!r} (expired or never opened)"
            )
        return session

    def get_or_restore(self, session_id: str, now_s: float) -> TagSession:
        """The live session, transparently restoring a checkpoint."""
        session = self._sessions.get(session_id)
        if session is not None:
            return session
        restored = self.restore(session_id, now_s)
        if restored is None:
            raise SessionNotFoundError(
                f"no live session {session_id!r} and no checkpoint to "
                "restore it from"
            )
        return restored

    def close(self, session_id: str) -> None:
        """Drop a session and forget any checkpoint of it."""
        self._sessions.pop(session_id, None)
        if self.cache is not None:
            path = self.cache.path_for(_checkpoint_key(session_id))
            try:
                path.unlink()
            except OSError:
                pass
        metrics.set_gauge("serve.sessions.active", len(self._sessions))

    def kill(self, session_id: str) -> int:
        """Crash-drop one live session; returns pending updates lost.

        Models an injected service kill: the session's accumulators are
        checkpointed (what a crash-consistent store would have synced)
        but its in-memory pending queue is *lost* — the caller counts
        those loudly. With no cache attached nothing survives, and a
        later submit fails with :class:`SessionNotFoundError`.
        """
        session = self.get(session_id)
        lost = len(session.pending)
        if self.cache is not None:
            self.cache.store(
                _checkpoint_key(session_id), session.checkpoint_payload()
            )
        del self._sessions[session_id]
        metrics.count("serve.sessions.killed")
        metrics.set_gauge("serve.sessions.active", len(self._sessions))
        return lost

    # -- TTL / checkpointing -----------------------------------------------------

    def evict_expired(self, now_s: float) -> List[str]:
        """Evict quiesced sessions idle past the TTL; returns their ids.

        Sessions with queued work are never evicted — shedding accepted
        updates silently would break the admission contract.
        """
        expired = [
            session_id
            for session_id, session in self._sessions.items()
            if len(session.pending) == 0
            and (now_s - session.last_seen_s) > self.config.session_ttl_s
        ]
        for session_id in expired:
            session = self._sessions.pop(session_id)
            if self.cache is not None:
                self.cache.store(
                    _checkpoint_key(session_id),
                    session.checkpoint_payload(),
                )
            metrics.count("serve.sessions.evicted")
        if expired:
            metrics.set_gauge("serve.sessions.active", len(self._sessions))
        return expired

    def restore(
        self, session_id: str, now_s: float
    ) -> Optional[TagSession]:
        """Resurrect an evicted session from its checkpoint, if any."""
        if self.cache is None:
            return None
        if len(self._sessions) >= self.config.max_sessions:
            raise ServeError(
                f"session limit reached ({self.config.max_sessions}); "
                f"cannot restore {session_id!r}"
            )
        hit, payload = self.cache.load(_checkpoint_key(session_id))
        if not hit:
            return None
        session = TagSession.from_payload(payload, self.config)
        session.last_seen_s = max(session.last_seen_s, float(now_s))
        self._sessions[session_id] = session
        metrics.count("serve.sessions.restored")
        metrics.set_gauge("serve.sessions.active", len(self._sessions))
        return session
