"""The online localization service.

Event-driven facade over the session store, the bounded queues, and the
micro-batch scheduler: callers ``submit`` per-pose measurements into
tag sessions and call ``step`` to run scheduling rounds; estimates
refine continuously and ``finalize`` returns the batch-equivalent
coarse-to-fine fix. Time is virtual throughout (see
:mod:`repro.serve.clock`), so identical inputs produce identical
latency tables.

Instrumentation (``repro.obs``): queue-depth and backlog gauges,
batch-size and latency histograms, per-round and per-batch spans, and
ingest/shed/degrade counters — activate a tracer/registry (as
``python -m repro.serve`` does) to capture them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.errors import LocalizationError, ReferenceLostError, ServeError
from repro.localization.batched import PoseBlock, fold_blocks
from repro.localization.disentangle import disentangle
from repro.localization.grid import Grid2D
from repro.localization.measurement import ThroughRelayMeasurement
from repro.localization.pipeline import LocalizationResult
from repro.obs import metrics, tracing
from repro.runtime.cache import ResultCache
from repro.serve.clock import VirtualClock
from repro.serve.config import ServeConfig
from repro.serve.queueing import Admission, PendingUpdate
from repro.serve.scheduler import MicroBatchScheduler
from repro.serve.session import SessionStore, TagSession

#: Below this, a disentangled tag half-link is "tag not decoded" — the
#: update is rejected rather than folded in as a spurious zero channel.
_MIN_TAG_MAGNITUDE = 1e-30

#: Transient ingest faults (injected relay instability) are retried this
#: many times; past it the update is rejected loudly.
INGEST_RETRIES = 2

#: Virtual-time backoff before the first retry, and its growth factor:
#: retry ``k`` waits ``RETRY_BACKOFF_S * RETRY_BACKOFF_FACTOR**k``.
RETRY_BACKOFF_S = 0.005
RETRY_BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class StepReport:
    """What one scheduling round did."""

    now_s: float
    busy_until_s: float
    batches: int
    degraded_batches: int
    updates_applied: int
    catchup_poses: int


def _percentile_s(latencies_s: Sequence[float], q: float) -> float:
    """A percentile of the recorded latencies (0 when none yet)."""
    if not latencies_s:
        return 0.0
    return float(np.percentile(np.asarray(latencies_s, dtype=float), q))


def _mean_s(samples_s: Sequence[float]) -> float:
    """The mean of the samples in their stored order (0 when none)."""
    return float(np.mean(samples_s)) if samples_s else 0.0


@dataclass(frozen=True)
class ServiceReport:
    """Cumulative service-level numbers (virtual-time latencies).

    The report owns its raw samples and derives every latency summary
    from them, so a merge pools samples instead of averaging summaries.
    Latency and handoff samples are stored sorted, which makes a pooled
    mean exactly independent of the order reports were merged in;
    recovery samples keep the order recoveries happened in.
    """

    updates_accepted: int
    updates_applied: int
    updates_degraded: int
    updates_shed: int
    full_batches: int
    degraded_batches: int
    catchup_poses: int
    busy_s: float
    updates_rejected: int = 0
    updates_lost: int = 0
    recoveries: int = 0
    handoffs: int = 0
    latency_samples_s: Tuple[float, ...] = ()
    recovery_samples_s: Tuple[float, ...] = ()
    handoff_samples_s: Tuple[float, ...] = ()

    @property
    def p50_latency_s(self) -> float:
        """Median applied latency."""
        return _percentile_s(self.latency_samples_s, 50.0)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile applied latency."""
        return _percentile_s(self.latency_samples_s, 99.0)

    @property
    def mean_recovery_latency_s(self) -> float:
        """Mean virtual time from a fault to its recovery."""
        return _mean_s(self.recovery_samples_s)

    @property
    def mean_handoff_latency_s(self) -> float:
        """Mean virtual time from a handoff's first update to fold-in."""
        return _mean_s(self.handoff_samples_s)


class LocalizationService:
    """Streaming through-relay localization for many concurrent tags."""

    def __init__(
        self, config: ServeConfig, cache: Optional[ResultCache] = None
    ) -> None:
        self.config = config
        self.store = SessionStore(config, cache)
        self.scheduler = MicroBatchScheduler(config)
        self.clock = VirtualClock()
        #: Each virtual server's busy horizon, keyed by
        #: :meth:`ServeConfig.server_of`.
        self._server_busy_s: Dict[str, float] = {}
        #: The makespan (``busy_s``): the latest horizon any server has
        #: reached, and never earlier than the last round's clock.
        self._busy_until_s = 0.0
        self._seq = 0
        self._latencies_s: List[float] = []
        self._applied = 0
        self._degraded_updates = 0
        self._accepted = 0
        self._shed = 0
        self._full_batches = 0
        self._degraded_batches = 0
        self._catchup_poses = 0
        self._rejected = 0
        self._lost_in_kill = 0
        self._recoveries = 0
        self._recovery_latencies_s: List[float] = []
        self._handoffs = 0
        #: Virtual-time cost of each session handoff: how long the
        #: first update staged on the new relay's segment waited from
        #: arrival to fold-in.
        self._handoff_latencies_s: List[float] = []
        self._killed_at_s: Dict[str, float] = {}
        self._ref_lost_since_s: Dict[str, float] = {}
        self._loss_by_session: Dict[str, int] = {}
        self._final_ladders: Dict[str, Tuple[Tuple[int, str], ...]] = {}

    def _charge(self, session_id: str, start_s: float, cost_s: float) -> float:
        """Queue ``cost_s`` of work on the session's server from
        ``start_s``; returns the virtual time the work completes."""
        server = self.config.server_of(session_id)
        done_s = max(self._server_busy_s.get(server, 0.0), start_s) + cost_s
        self._server_busy_s[server] = done_s
        self._busy_until_s = max(self._busy_until_s, done_s)
        return done_s

    # -- recovery policies -------------------------------------------------------

    def _record_recovery(self, latency_s: float, kind: str) -> None:
        """Account one successful recovery and its virtual latency."""
        self._recoveries += 1
        self._recovery_latencies_s.append(latency_s)
        metrics.count(f"serve.recovery.{kind}")
        metrics.observe("serve.recovery.latency_s", latency_s)

    def _reject_update(self, session_id: str, reason: str) -> Admission:
        """Refuse one update loudly (counted, typed, never silent)."""
        self._rejected += 1
        self._count_session_loss(session_id)
        metrics.count("serve.updates.rejected")
        metrics.count(f"serve.rejected.{reason}")
        return Admission.REJECTED

    def _count_session_loss(self, session_id: str, n: int = 1) -> None:
        """Account ``n`` updates this session will never see applied."""
        self._loss_by_session[session_id] = (
            self._loss_by_session.get(session_id, 0) + n
        )

    def session_data_loss(self, session_id: str) -> int:
        """Updates lost to this session (rejected at ingest or dropped
        by an injected kill) — the degraded-fix flag: a session that
        finalizes with a nonzero count produced its estimate from a
        stream with known holes and must not be trusted silently."""
        return self._loss_by_session.get(session_id, 0)

    def _ride_out_ingest_faults(
        self, session_id: str, arrival_s: float
    ) -> Optional[float]:
        """Bounded deterministic-backoff retry against ingest faults.

        Injected stalls charge the session's virtual server; injected
        transient drops are retried up to :data:`INGEST_RETRIES` times,
        retry ``k`` waiting ``RETRY_BACKOFF_S * RETRY_BACKOFF_FACTOR**k``
        on the virtual clock. Returns the possibly-delayed arrival time,
        or ``None`` once the retry budget is exhausted.
        """
        stall_s = faults.stall_s("serve.ingest", now_s=arrival_s)
        if stall_s > 0.0:
            self._charge(session_id, arrival_s, stall_s)
            metrics.observe("serve.ingest.stall_s", stall_s)
        first_arrival_s = arrival_s
        attempt = 0
        while faults.dropped("serve.ingest", now_s=arrival_s):
            if attempt >= INGEST_RETRIES:
                metrics.count("serve.ingest.retries_exhausted")
                return None
            backoff_s = RETRY_BACKOFF_S * RETRY_BACKOFF_FACTOR**attempt
            arrival_s = self.clock.advance_to(arrival_s + backoff_s)
            attempt += 1
            metrics.count("serve.ingest.retries")
        if attempt:
            self._record_recovery(arrival_s - first_arrival_s, "ingest")
        return arrival_s

    def _get_session(self, session_id: str, now_s: float) -> TagSession:
        """Live-or-restored session, accounting recovery after a kill."""
        killed_s = self._killed_at_s.pop(session_id, None)
        was_live = session_id in self.store.sessions()
        session = self.store.get_or_restore(session_id, now_s)
        if killed_s is not None and not was_live:
            self._record_recovery(now_s - killed_s, "restore")
        return session

    def _reference_lost(self, session_id: str, arrival_s: float) -> Admission:
        """One undecodable reference: reject within the reacquisition
        window, escalate to :class:`ReferenceLostError` past it."""
        since_s = self._ref_lost_since_s.setdefault(session_id, arrival_s)
        metrics.count("serve.reference.undecodable")
        outage_s = arrival_s - since_s
        if outage_s > self.config.reference_timeout_s:
            raise ReferenceLostError(
                f"session {session_id!r}: reference tag undecodable for "
                f"{outage_s:.3f} s (timeout "
                f"{self.config.reference_timeout_s:g} s) — relay out of "
                "range or link blocked (paper §5.1)"
            )
        return self._reject_update(session_id, "reference")

    def _reference_reacquired(
        self, session_id: str, arrival_s: float
    ) -> None:
        """Close a reference outage, if one was open."""
        since_s = self._ref_lost_since_s.pop(session_id, None)
        if since_s is not None:
            self._record_recovery(arrival_s - since_s, "reference")

    def _service_kill(self, now_s: float) -> None:
        """Injected service crash: checkpoint-and-drop every session."""
        for session_id in self.store.ids():
            lost = self.store.kill(session_id)
            self._killed_at_s[session_id] = now_s
            if lost:
                self._lost_in_kill += lost
                self._count_session_loss(session_id, lost)
                metrics.count("serve.updates.lost_in_kill", lost)

    def kill_sessions(self, now_s: Optional[float] = None) -> int:
        """Crash-drop every live session; returns pending updates lost.

        The shard failover path: a ``serve.shard`` reboot kills one
        worker's whole session population. Accumulator state survives
        via the store's replica checkpoints (when a cache is attached)
        and restores transparently on the next submit, with the lost
        pending updates accounted per session — exactly the
        ``serve.session`` service-kill discipline.
        """
        if now_s is not None:
            self.clock.advance_to(now_s)
        before = self._lost_in_kill
        self._service_kill(self.clock.now_s)
        return self._lost_in_kill - before

    # -- session lifecycle -------------------------------------------------------

    def open_session(
        self, session_id: str, grid: Grid2D, now_s: float = 0.0
    ) -> TagSession:
        """Open a streaming session searching over ``grid``."""
        self.clock.advance_to(now_s)
        metrics.count("serve.sessions.opened")
        return self.store.open(session_id, grid, now_s=self.clock.now_s)

    def finalize(
        self, session_id: str, now_s: Optional[float] = None
    ) -> LocalizationResult:
        """Drain the session's queue, catch up, and close with a fix.

        The full-resolution catch-up and fine stage are charged to the
        session's virtual server like any other work, so a finalize
        under load takes its fair place in the backlog.
        """
        if now_s is not None:
            self.clock.advance_to(now_s)
        session = self._get_session(session_id, self.clock.now_s)
        while len(session.pending):
            self.step()
        catchup = session.total_lag_poses
        self._charge(
            session_id,
            self.clock.now_s,
            self.config.batch_cost_s(catchup * session.full_nodes),
        )
        self._catchup_poses += catchup
        with tracing.span(
            "serve.finalize", session=session_id, catchup=catchup
        ):
            result = session.finalize()
        self._final_ladders[session_id] = tuple(session.ladder)
        self.store.close(session_id)
        metrics.count("serve.sessions.finalized")
        return result

    # -- ingest ------------------------------------------------------------------

    def submit(
        self,
        session_id: str,
        measurement: ThroughRelayMeasurement,
        now_s: Optional[float] = None,
    ) -> Admission:
        """Ingest one per-pose measurement into a session's queue.

        Disentanglement (Eq. 10) happens here, so shedding costs almost
        nothing and an admitted update is ready for pure vectorized
        accumulation. A read whose channel estimates or pose are not
        finite is rejected before it (reason ``non_finite``).
        Expired-but-checkpointed sessions restore transparently.
        """
        arrival_s = self.clock.advance_to(
            now_s if now_s is not None else self.clock.now_s
        )
        self.store.evict_expired(arrival_s)
        if faults.watching("serve.ingest"):
            delayed_s = self._ride_out_ingest_faults(session_id, arrival_s)
            if delayed_s is None:
                return self._reject_update(session_id, "retries_exhausted")
            arrival_s = delayed_s
        session = self._get_session(session_id, arrival_s)
        if (
            faults.watching("relay.handoff")
            and session.last_ingest_relay is not None
            and measurement.relay != session.last_ingest_relay
        ):
            # The RF handoff window: the first update(s) arriving from
            # a new serving relay can stall (re-synchronization charged
            # to the session's server) or be lost outright — a loss is
            # rejected loudly and flags the session's final fix.
            stall_s = faults.stall_s("relay.handoff", now_s=arrival_s)
            if stall_s > 0.0:
                self._charge(session_id, arrival_s, stall_s)
                metrics.observe("serve.handoff.stall_s", stall_s)
            if faults.dropped("relay.handoff", now_s=arrival_s):
                return self._reject_update(session_id, "handoff")
        session.last_ingest_relay = measurement.relay
        position = np.asarray(measurement.position, dtype=float)
        if not (
            cmath.isfinite(measurement.h_target)
            and cmath.isfinite(measurement.h_reference)
            and np.isfinite(position).all()
        ):
            # A NaN/inf estimate or pose would poison the stacked fold
            # (and every session co-batched with it), and a non-finite
            # reference must not pass as a reacquired one.
            return self._reject_update(session_id, "non_finite")
        try:
            channel = disentangle(
                measurement.h_target, measurement.h_reference
            )
        except LocalizationError:
            return self._reference_lost(session_id, arrival_s)
        self._reference_reacquired(session_id, arrival_s)
        if abs(channel) < _MIN_TAG_MAGNITUDE:
            # The reference decoded but the tag half-link is dead (link
            # blocked mid-flight): folding a zero channel into the SAR
            # sum would silently bias the fix, so refuse it loudly.
            return self._reject_update(session_id, "tag_undecodable")
        update = PendingUpdate(
            position=position,
            channel=channel,
            arrival_s=arrival_s,
            seq=self._seq,
            relay=measurement.relay,
        )
        self._seq += 1
        admission = session.offer(update, arrival_s)
        if admission is Admission.ACCEPTED:
            self._accepted += 1
            metrics.count("serve.updates.accepted")
        else:
            self._shed += 1
            self._count_session_loss(session_id)
            metrics.count("serve.updates.shed")
        metrics.set_gauge("serve.queue_depth", float(self.queue_depth))
        return admission

    # -- scheduling --------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Total pending updates across live sessions."""
        return sum(
            len(s.pending) for s in self.store.sessions().values()
        )

    @property
    def backlog_s(self) -> float:
        """How far the busiest virtual server runs behind the clock."""
        return max(0.0, self._busy_until_s - self.clock.now_s)

    def step(self, now_s: Optional[float] = None) -> StepReport:
        """Run one scheduling round over everything pending."""
        if now_s is not None:
            self.clock.advance_to(now_s)
        now = self.clock.now_s
        self.store.evict_expired(now)
        if faults.rebooted("serve.session", now_s=now):
            self._service_kill(now)
        with tracing.span("serve.step", queue_depth=self.queue_depth):
            plans = self.scheduler.plan_round(
                self.store.sessions(), now, self._server_busy_s
            )
            self._busy_until_s = max(self._busy_until_s, now)
            applied = 0
            degraded_batches = 0
            catchup_total = 0
            staged: List[PoseBlock] = []
            for plan in plans:
                session = self.store.get(plan.session_id)
                handoffs_before = session.handoffs
                with tracing.span(
                    "serve.batch",
                    session=plan.session_id,
                    poses=len(plan.updates),
                    degraded=plan.degraded,
                ):
                    staged.extend(
                        session.stage_batch(plan.updates, plan.degraded)
                    )
                    if plan.catchup_poses:
                        staged.extend(
                            session.stage_catchup(plan.catchup_poses)
                        )
                done_s = self._charge(plan.session_id, now, plan.cost_s)
                handoff_delta = session.handoffs - handoffs_before
                if handoff_delta:
                    # Handoff latency: the first update of the batch
                    # that triggered the segment swap, arrival to
                    # fold-in, in virtual time.
                    handoff_latency_s = done_s - plan.updates[0].arrival_s
                    self._handoffs += handoff_delta
                    self._handoff_latencies_s.extend(
                        [handoff_latency_s] * handoff_delta
                    )
                    metrics.count("serve.handoffs", handoff_delta)
                    metrics.observe(
                        "serve.handoff.latency_s", handoff_latency_s
                    )
                for update in plan.updates:
                    latency_s = done_s - update.arrival_s
                    self._latencies_s.append(latency_s)
                    metrics.observe("serve.latency_s", latency_s)
                applied += len(plan.updates)
                catchup_total += plan.catchup_poses
                if plan.degraded:
                    degraded_batches += 1
                    self._degraded_batches += 1
                    self._degraded_updates += len(plan.updates)
                    metrics.count("serve.batches.degraded")
                else:
                    self._full_batches += 1
                    metrics.count("serve.batches.full")
                metrics.observe("serve.batch_poses", float(len(plan.updates)))
            if staged:
                with tracing.span("serve.fold", blocks=len(staged)):
                    fold_blocks(staged)
            self._applied += applied
            self._catchup_poses += catchup_total
        metrics.set_gauge("serve.queue_depth", float(self.queue_depth))
        metrics.set_gauge("serve.backlog_s", self.backlog_s)
        return StepReport(
            now_s=now,
            busy_until_s=self._busy_until_s,
            batches=len(plans),
            degraded_batches=degraded_batches,
            updates_applied=applied,
            catchup_poses=catchup_total,
        )

    def drain(self, max_rounds: int = 10_000) -> int:
        """Step until no update is pending; returns rounds taken."""
        rounds = 0
        while self.queue_depth:
            if rounds >= max_rounds:
                raise ServeError(
                    f"drain did not converge within {max_rounds} rounds"
                )
            self.step()
            rounds += 1
        return rounds

    # -- readout -----------------------------------------------------------------

    def estimate(self, session_id: str) -> np.ndarray:
        """The freshest complete coarse estimate for one session."""
        return self.store.get(session_id).estimate()

    def estimates(self) -> Dict[str, np.ndarray]:
        """Current estimates for every live session with data."""
        out: Dict[str, np.ndarray] = {}
        for session_id, session in self.store.sessions().items():
            if session.degraded.n_poses > 0:
                out[session_id] = session.estimate()
        return out

    def latency_samples(self) -> Tuple[float, ...]:
        """Raw applied-latency samples, in application order."""
        return tuple(self._latencies_s)

    def final_ladder(
        self, session_id: str
    ) -> Tuple[Tuple[int, str], ...]:
        """Degradation-ladder transition log captured at finalize.

        Entries are ``(applied_before, mode)`` keyed by the session's
        *local* applied count — deliberately not the service-global
        sequence, so the log is invariant to which other sessions
        shared the worker (shard equivalence pins this).
        """
        return self._final_ladders.get(session_id, ())

    def report(self) -> ServiceReport:
        """Cumulative virtual-time service report."""
        return ServiceReport(
            updates_accepted=self._accepted,
            updates_applied=self._applied,
            updates_degraded=self._degraded_updates,
            updates_shed=self._shed,
            full_batches=self._full_batches,
            degraded_batches=self._degraded_batches,
            catchup_poses=self._catchup_poses,
            busy_s=self._busy_until_s,
            updates_rejected=self._rejected,
            updates_lost=self._lost_in_kill,
            recoveries=self._recoveries,
            handoffs=self._handoffs,
            latency_samples_s=tuple(sorted(self._latencies_s)),
            recovery_samples_s=tuple(self._recovery_latencies_s),
            handoff_samples_s=tuple(sorted(self._handoff_latencies_s)),
        )
