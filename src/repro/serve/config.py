"""Service configuration: SLOs, queue bounds, and the virtual cost model.

The service is scheduled in *virtual time*: every micro-batch charges a
deterministic cost derived from the grid nodes it projects
(``batch_overhead_s + nodes / service_rate_nodes_per_s``), and
latencies are measured on that clock. Real wall time never enters the
data path, which is what makes every throughput/latency table
seed-deterministic — the same discipline the sweep engine uses for its
bit-identical serial/process results.

The degradation ladder has three rungs, decided per micro-batch:

1. **FULL** — project onto the session's full-resolution coarse grid
   (plus the always-on degraded grid that backs cheap estimates).
2. **DEGRADED** — when the projected queueing delay exceeds
   ``degrade_after_s``, project onto the coarse multires grid only
   (``degraded_resolution_factor`` times coarser, so roughly that
   factor squared cheaper) and defer the full-resolution fold-in;
   the accumulation is linear, so the deferred poses are folded in
   later (idle catch-up or finalize) with zero accuracy loss.
3. **SHED** — admission control: a session whose bounded queue is full
   drops the new update at ingest and reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.constants import SAR_DEFAULT_GRID_RESOLUTION_M
from repro.errors import ConfigurationError
from repro.localization.sar import DEFAULT_CHUNK_NODES


@dataclass(frozen=True)
class ServeConfig:
    """Everything the online localization service needs to run.

    Parameters
    ----------
    frequency_hz:
        Matched-filter frequency shared by every session.
    latency_slo_s:
        Target p99 end-to-end (arrival -> applied) latency; the
        reports compare against it and the benchmark asserts it.
    degrade_after_s:
        Projected queueing delay beyond which a micro-batch runs on
        the degraded grid. ``None`` defaults to half the SLO.
    queue_capacity:
        Per-session bound on pending updates; arrivals beyond it are
        shed at ingest (admission control).
    max_batch_poses:
        Most pending poses folded into one micro-batch per session.
    catchup_poses:
        Most deferred full-resolution poses folded alongside one FULL
        batch — bounds how much catch-up work a busy round absorbs.
    service_rate_nodes_per_s:
        Virtual grid-node projection rate of the (single) server.
    batch_overhead_s:
        Fixed virtual cost per micro-batch (dispatch + kernel launch).
    degraded_resolution_factor:
        How much coarser the degraded grid is than the session grid.
    session_ttl_s:
        Idle time after which a quiesced session is evicted (and
        checkpointed when a cache is attached).
    max_sessions:
        Hard bound on concurrently live sessions.
    ingest_retries:
        Bounded retry budget against transient ingest faults (injected
        relay instability); past it the update is rejected loudly.
    retry_backoff_s, retry_backoff_factor:
        Deterministic exponential backoff charged in virtual time:
        retry ``k`` waits ``retry_backoff_s * retry_backoff_factor**k``.
    reference_timeout_s:
        How long a session's reference tag may stay undecodable (each
        such update is REJECTED, a flagged degradation) before the
        service escalates to :class:`~repro.errors.ReferenceLostError`.
    fine_resolution, fine_span, relative_threshold,
    use_nearest_peak_rule:
        Finalize-stage parameters, matching the batch ``Localizer``.
    chunk_nodes:
        Node chunking for grid projections (memory knob only).
    capacity_mode:
        ``"shared"`` (default) runs every session against one virtual
        server: the backlog is global, so co-resident sessions couple
        through the degradation decision. ``"partitioned"`` gives each
        session its own virtual server (per-session busy clock and
        backlog) — the serving numbers of a session then depend only
        on its own stream, which is what makes a consistent-hash
        sharded run (:mod:`repro.serve.shard`) bit-identical to the
        unsharded service. Sharding *requires* partitioned isolation.
    """

    frequency_hz: float
    latency_slo_s: float = 0.25
    degrade_after_s: Optional[float] = None
    queue_capacity: int = 128
    max_batch_poses: int = 32
    catchup_poses: int = 64
    service_rate_nodes_per_s: float = 2.0e6
    batch_overhead_s: float = 0.002
    degraded_resolution_factor: float = 3.0
    session_ttl_s: float = 30.0
    max_sessions: int = 512
    ingest_retries: int = 2
    retry_backoff_s: float = 0.005
    retry_backoff_factor: float = 2.0
    reference_timeout_s: float = 1.0
    fine_resolution: float = SAR_DEFAULT_GRID_RESOLUTION_M
    fine_span: float = 1.0
    relative_threshold: float = 0.7
    use_nearest_peak_rule: bool = True
    chunk_nodes: int = DEFAULT_CHUNK_NODES
    capacity_mode: str = "shared"

    def __post_init__(self) -> None:
        if self.capacity_mode not in ("shared", "partitioned"):
            raise ConfigurationError(
                "capacity_mode must be 'shared' or 'partitioned', "
                f"got {self.capacity_mode!r}"
            )
        if self.frequency_hz <= 0:
            raise ConfigurationError("frequency must be positive")
        if self.latency_slo_s <= 0:
            raise ConfigurationError("latency SLO must be positive")
        if self.degrade_after_s is None:
            object.__setattr__(
                self, "degrade_after_s", self.latency_slo_s / 2.0
            )
        elif self.degrade_after_s <= 0:
            raise ConfigurationError("degrade threshold must be positive")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        if self.max_batch_poses < 1:
            raise ConfigurationError("max batch poses must be >= 1")
        if self.catchup_poses < 0:
            raise ConfigurationError("catch-up pose budget must be >= 0")
        if self.service_rate_nodes_per_s <= 0:
            raise ConfigurationError("service rate must be positive")
        if self.batch_overhead_s < 0:
            raise ConfigurationError("batch overhead must be >= 0")
        if self.degraded_resolution_factor < 1.0:
            raise ConfigurationError(
                "degraded grid must not be finer than the session grid"
            )
        if self.session_ttl_s <= 0:
            raise ConfigurationError("session TTL must be positive")
        if self.max_sessions < 1:
            raise ConfigurationError("max sessions must be >= 1")
        if self.ingest_retries < 0:
            raise ConfigurationError("ingest retry budget must be >= 0")
        if self.retry_backoff_s <= 0:
            raise ConfigurationError("retry backoff must be positive")
        if self.retry_backoff_factor < 1.0:
            raise ConfigurationError("retry backoff factor must be >= 1")
        if self.reference_timeout_s <= 0:
            raise ConfigurationError(
                "reference reacquisition timeout must be positive"
            )

    @property
    def degrade_threshold_s(self) -> float:
        """The resolved degradation threshold (``__post_init__`` fills it)."""
        threshold_s = self.degrade_after_s
        if threshold_s is None:  # pragma: no cover - unreachable after init
            return self.latency_slo_s / 2.0
        return threshold_s

    def batch_cost_s(self, projected_nodes: int) -> float:
        """Virtual service time of one micro-batch projecting N nodes."""
        return self.batch_overhead_s + (
            projected_nodes / self.service_rate_nodes_per_s
        )
