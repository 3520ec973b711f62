"""Consistent-hash sharding of the serving layer.

One :class:`~repro.serve.service.LocalizationService` is a single
virtual server; this module partitions the tag-session population
across ``M`` independent service workers with a consistent-hash ring,
so the serving layer scales horizontally while staying *bit-identical*
to the unsharded service.

Why bit-identity is even possible
---------------------------------

Three properties stack:

1. **Partitioned capacity isolation** (``ServeConfig(capacity_mode
   ="partitioned")``, required here): every session runs against its
   own virtual server, so its scheduling decisions — degradation,
   charging, latency — read only its own stream. Which other sessions
   share a worker stops mattering.
2. **Stacking-invariant batched folds**
   (:func:`repro.localization.batched.fold_blocks`): an accumulator's
   bits never depend on which co-scheduled sessions were stacked into
   the same kernel call.
3. **Sample-pooled report merging**: per-shard raw latency samples are
   concatenated in shard order and percentiles recomputed from the
   pool (``np.percentile`` sorts), so the merged report equals the
   unsharded one instead of averaging per-shard percentiles.

Hence ``run_sharded_workload`` with ``n_shards=M`` (serial or process
backend) returns the same fixes, errors, ladder logs, and latency
percentiles as with ``n_shards=1`` — the unsharded serial service —
and the hypothesis suite in ``tests/serve`` pins it.

Routing uses a :class:`ShardRing` over ``hashlib.blake2b`` digests —
never the builtin ``hash()``, which is salted per process
(``PYTHONHASHSEED``) and would route the same session differently in
different workers (reprolint O503 bans it). Virtual nodes keep the
partition balanced, and the ring's removal property bounds failover
churn: dropping one of ``M`` shards remigrates only ~``1/M`` of the
keys, everything else stays put.

Failover rides the deterministic fault engine: a ``serve.shard``
reboot (:func:`repro.faults.rebooted` with the shard index) crash-drops
one worker's sessions through the store's checkpoint/kill path, and
restores account their recoveries exactly like the unsharded
``serve.session`` kill discipline.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.errors import ConfigurationError
from repro.localization.grid import Grid2D
from repro.localization.measurement import ThroughRelayMeasurement
from repro.obs import metrics, tracing
from repro.runtime.backends import map_in_processes
from repro.runtime.cache import ResultCache
from repro.runtime.seeding import spawn_task_seeds
from repro.serve.config import ServeConfig
from repro.serve.queueing import Admission
from repro.serve.service import (
    LocalizationService,
    ServiceReport,
    _percentile_s,
)
from repro.serve.traffic import ServeRunReport, TrafficWorkload, replay

#: Default virtual nodes per shard on the ring; enough that the
#: keyspace split stays within a few percent of uniform at small M.
DEFAULT_RING_REPLICAS = 64

#: Salt namespacing the ring's digests (vnode and key points draw from
#: disjoint families even for colliding raw strings).
_RING_SALT = "repro.serve.shard"


def _digest64(material: str) -> int:
    """Process-stable 64-bit point on the ring for ``material``.

    ``blake2b`` keyed by content only — unlike builtin ``hash()``,
    identical across processes, interpreter runs, and platforms, which
    is what routing tables require.
    """
    digest = hashlib.blake2b(
        material.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def default_shard_ids(n_shards: int) -> Tuple[str, ...]:
    """The canonical shard id sequence ``shard-00 .. shard-(M-1)``."""
    return tuple(f"shard-{index:02d}" for index in range(n_shards))


class ShardRing:
    """A consistent-hash ring mapping session ids to shard ids.

    Each shard contributes ``replicas`` virtual nodes; a key routes to
    the first vnode clockwise from its digest. Routing is a pure
    function of ``(shard_ids, replicas, key)`` — no process state —
    and removing a shard leaves every other shard's vnodes in place,
    so only the removed shard's keys remigrate (~``1/M`` of the
    keyspace), the consistent-hashing property the failover tests pin.
    """

    def __init__(
        self,
        shards: Union[int, Sequence[str]],
        replicas: int = DEFAULT_RING_REPLICAS,
    ) -> None:
        if isinstance(shards, int):
            if shards < 1:
                raise ConfigurationError("need at least one shard")
            shard_ids: Tuple[str, ...] = default_shard_ids(shards)
        else:
            shard_ids = tuple(shards)
            if not shard_ids:
                raise ConfigurationError("need at least one shard")
            if len(set(shard_ids)) != len(shard_ids):
                raise ConfigurationError("shard ids must be unique")
        if replicas < 1:
            raise ConfigurationError("ring replicas must be >= 1")
        self.shard_ids = shard_ids
        self.replicas = replicas
        points: List[Tuple[int, str]] = [
            (
                _digest64(f"{_RING_SALT}|vnode|{shard_id}|{replica}"),
                shard_id,
            )
            for shard_id in shard_ids
            for replica in range(replicas)
        ]
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    def route(self, session_id: str) -> str:
        """The shard id owning ``session_id``."""
        point = _digest64(f"{_RING_SALT}|key|{session_id}")
        index = bisect.bisect_right(self._keys, point)
        if index == len(self._keys):
            index = 0
        return self._points[index][1]

    def table(self, session_ids: Sequence[str]) -> Dict[str, str]:
        """Routing table for a batch of session ids."""
        return {sid: self.route(sid) for sid in session_ids}

    def without(self, shard_id: str) -> "ShardRing":
        """The ring with one shard removed (failover reassignment)."""
        remaining = tuple(s for s in self.shard_ids if s != shard_id)
        if len(remaining) == len(self.shard_ids):
            raise ConfigurationError(f"unknown shard {shard_id!r}")
        return ShardRing(remaining, replicas=self.replicas)

    def with_shard(self, shard_id: str) -> "ShardRing":
        """The ring with one shard added (scale-out reassignment)."""
        if shard_id in self.shard_ids:
            raise ConfigurationError(f"duplicate shard {shard_id!r}")
        return ShardRing(
            self.shard_ids + (shard_id,), replicas=self.replicas
        )


@dataclass(frozen=True)
class ShardConfig:
    """How to shard: worker count, ring shape, execution backend."""

    n_shards: int = 1
    replicas: int = DEFAULT_RING_REPLICAS
    backend: str = "serial"
    max_workers: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError("need at least one shard")
        if self.replicas < 1:
            raise ConfigurationError("ring replicas must be >= 1")
        if self.backend not in ("serial", "process"):
            raise ConfigurationError(
                f"shard backend must be 'serial' or 'process', "
                f"got {self.backend!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError("max workers must be >= 1")

    def shard_ids(self) -> Tuple[str, ...]:
        """Shard ids ``shard-00 .. shard-(M-1)``."""
        return default_shard_ids(self.n_shards)

    def ring(self) -> ShardRing:
        """The routing ring for this configuration."""
        return ShardRing(self.shard_ids(), replicas=self.replicas)


def _require_partitioned(config: ServeConfig) -> None:
    """Sharding without isolation would silently change the numbers."""
    if config.capacity_mode != "partitioned":
        raise ConfigurationError(
            "sharding requires ServeConfig(capacity_mode="
            "'partitioned'): with a shared virtual server, sessions "
            "couple through the global backlog and a sharded run would "
            "NOT match the unsharded service"
        )


def _pooled(samples: Sequence[Sequence[float]]) -> List[float]:
    """Per-shard samples concatenated in shard order."""
    return [sample for shard in samples for sample in shard]


def merge_service_reports(
    reports: Sequence[ServiceReport],
    latencies_s: Sequence[Sequence[float]],
    recoveries_s: Sequence[Sequence[float]],
    handoffs_s: Sequence[Sequence[float]] = (),
) -> ServiceReport:
    """Merge per-shard reports into one service-level report.

    Counters add; percentiles recompute from the pooled raw samples
    (bitwise what the unsharded service reports, since
    ``np.percentile`` sorts); ``busy_s`` is the makespan — the shards
    run concurrently, so the fleet is busy as long as its slowest
    member. Handoff counts add and the mean handoff latency pools the
    per-shard samples, so heterogeneous per-shard counters merge the
    same whatever order the shards are listed in (a sum of samples is
    permutation-invariant up to float association; the tests pin
    order-insensitivity of the merged numbers).
    """
    pooled = _pooled(latencies_s)
    recoveries = _pooled(recoveries_s)
    handoffs = _pooled(handoffs_s)
    return ServiceReport(
        updates_accepted=sum(r.updates_accepted for r in reports),
        updates_applied=sum(r.updates_applied for r in reports),
        updates_degraded=sum(r.updates_degraded for r in reports),
        updates_shed=sum(r.updates_shed for r in reports),
        full_batches=sum(r.full_batches for r in reports),
        degraded_batches=sum(r.degraded_batches for r in reports),
        catchup_poses=sum(r.catchup_poses for r in reports),
        p50_latency_s=_percentile_s(pooled, 50.0),
        p99_latency_s=_percentile_s(pooled, 99.0),
        max_latency_s=max(pooled) if pooled else 0.0,
        busy_s=max((r.busy_s for r in reports), default=0.0),
        updates_rejected=sum(r.updates_rejected for r in reports),
        updates_lost=sum(r.updates_lost for r in reports),
        recoveries=sum(r.recoveries for r in reports),
        mean_recovery_latency_s=(
            float(np.mean(recoveries)) if recoveries else 0.0
        ),
        handoffs=sum(r.handoffs for r in reports),
        # Sorting canonicalizes the float summation order, so the
        # merged mean is exactly permutation-invariant and matches the
        # unsharded service (which sorts too).
        mean_handoff_latency_s=(
            float(np.mean(np.sort(np.asarray(handoffs, dtype=float))))
            if handoffs
            else 0.0
        ),
    )


class ShardedLocalizationService:
    """An interactive facade over ``M`` independent service workers.

    Routes every per-session call through the ring; ``step`` runs one
    scheduling round on every worker, checking the ``serve.shard``
    reboot hook per shard index first — which is how the fault engine's
    ``pose_index`` trigger targets exactly one shard for failover.
    """

    def __init__(
        self,
        config: ServeConfig,
        shards: ShardConfig = ShardConfig(),
        cache: Optional[ResultCache] = None,
    ) -> None:
        _require_partitioned(config)
        self.config = config
        self.shards = shards
        self.ring = shards.ring()
        self._index_of = {
            shard_id: index
            for index, shard_id in enumerate(shards.shard_ids())
        }
        self.workers: Tuple[LocalizationService, ...] = tuple(
            LocalizationService(config, cache=cache)
            for _ in range(shards.n_shards)
        )

    def route(self, session_id: str) -> int:
        """The worker index owning ``session_id``."""
        return self._index_of[self.ring.route(session_id)]

    def worker_of(self, session_id: str) -> LocalizationService:
        """The worker owning ``session_id``."""
        return self.workers[self.route(session_id)]

    def open_session(
        self, session_id: str, grid: Grid2D, now_s: float = 0.0
    ) -> None:
        """Open a session on its ring-assigned worker."""
        self.worker_of(session_id).open_session(
            session_id, grid, now_s=now_s
        )

    def submit(
        self,
        session_id: str,
        measurement: ThroughRelayMeasurement,
        now_s: Optional[float] = None,
    ) -> Admission:
        """Ingest one measurement through the owning worker."""
        return self.worker_of(session_id).submit(
            session_id, measurement, now_s=now_s
        )

    def step(self, now_s: Optional[float] = None) -> None:
        """One scheduling round on every worker (reboot hooks first)."""
        for index, worker in enumerate(self.workers):
            if faults.rebooted("serve.shard", index=index, now_s=now_s):
                worker.kill_sessions(now_s)
            worker.step(now_s=now_s)

    def kill_shard(self, index: int, now_s: Optional[float] = None) -> int:
        """Crash one worker's session population (checkpoint + drop)."""
        return self.workers[index].kill_sessions(now_s)

    def drain(self, max_rounds: int = 10_000) -> int:
        """Drain every worker; returns total rounds taken."""
        return sum(w.drain(max_rounds=max_rounds) for w in self.workers)

    def finalize(
        self, session_id: str, now_s: Optional[float] = None
    ) -> Any:
        """Finalize a session on its owning worker."""
        return self.worker_of(session_id).finalize(session_id, now_s=now_s)

    def estimate(self, session_id: str) -> np.ndarray:
        """Freshest coarse estimate from the owning worker."""
        return self.worker_of(session_id).estimate(session_id)

    def estimates(self) -> Dict[str, np.ndarray]:
        """Merged current estimates across every worker."""
        merged: Dict[str, np.ndarray] = {}
        for worker in self.workers:
            merged.update(worker.estimates())
        return merged

    def final_ladder(
        self, session_id: str
    ) -> Tuple[Tuple[int, str], ...]:
        """Ladder transition log from the owning worker."""
        return self.worker_of(session_id).final_ladder(session_id)

    def session_data_loss(self, session_id: str) -> int:
        """Lost-update accounting from the owning worker."""
        return self.worker_of(session_id).session_data_loss(session_id)

    def report(self) -> ServiceReport:
        """Merged (sample-pooled) service report across the fleet."""
        return merge_service_reports(
            [w.report() for w in self.workers],
            [w.latency_samples() for w in self.workers],
            [w.recovery_latency_samples() for w in self.workers],
            [w.handoff_latency_samples() for w in self.workers],
        )


# -- whole-workload sharded replay -----------------------------------------------


@dataclass(frozen=True)
class _ShardPayload:
    """Everything one shard worker needs, picklable for process pools."""

    index: int
    config: ServeConfig
    workload: TrafficWorkload
    fault_plan: Optional[faults.FaultPlan]
    seed: int
    cache_dir: Optional[str]


@dataclass(frozen=True)
class ShardedRunReport(ServeRunReport):
    """A workload replayed through the sharded service, merged."""

    n_shards: int
    assignment: Dict[str, str]
    per_shard: Tuple[ServiceReport, ...]
    injected: int


def _replay_shard(
    payload: _ShardPayload,
) -> Tuple[ServeRunReport, Dict[str, Any], int]:
    """Replay one shard's event stream through a fresh worker.

    Runs identically in-process and in a pool worker: fresh metrics
    registry, optional fault engine engaged with this shard's spawned
    seed, then :func:`~repro.serve.traffic.replay` with this worker's
    ``serve.shard`` reboot hook, finalizing at the workload's end time
    — the explicit time keeps per-shard clocks aligned however events
    split. Returns the shard's report, metrics snapshot and injection
    count.
    """
    registry = metrics.MetricsRegistry()
    cache = (
        ResultCache(payload.cache_dir)
        if payload.cache_dir is not None
        else None
    )
    engine: Optional[faults.FaultEngine] = None
    with metrics.activated(registry), contextlib.ExitStack() as stack:
        if payload.fault_plan is not None:
            engine = stack.enter_context(
                faults.engaged(payload.fault_plan, seed=payload.seed)
            )
        report = replay(
            LocalizationService(payload.config, cache=cache),
            payload.workload,
            finalize_at_s=payload.workload.duration_s,
            shard_index=payload.index,
        )
        injected = len(engine.injections) if engine is not None else 0
    return report, registry.snapshot(), injected


def run_sharded_workload(
    workload: TrafficWorkload,
    config: ServeConfig,
    shards: ShardConfig = ShardConfig(),
    cache: Optional[ResultCache] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
) -> ShardedRunReport:
    """Replay a workload across ``M`` shards and merge the results.

    Partitions the event stream by the routing ring, replays every
    shard independently (serially in-process or over a process pool —
    bit-identical either way, the sweep-engine discipline), and merges
    in shard order. With ``n_shards=1`` this *is* the unsharded serial
    service; the equivalence suite pins ``M > 1`` against it.

    Fault engines are per shard, seeded by ``SeedSequence`` children of
    ``shards.seed`` (the sweep engine's spawn discipline), so injected
    failover is reproducible under either backend.
    """
    _require_partitioned(config)
    ring = shards.ring()
    session_ids = sorted(workload.grids)
    assignment = ring.table(session_ids)
    seeds = spawn_task_seeds(shards.seed, shards.n_shards)
    payloads: List[_ShardPayload] = []
    for index, shard_id in enumerate(shards.shard_ids()):
        owned = [s for s in session_ids if assignment[s] == shard_id]
        payloads.append(
            _ShardPayload(
                index=index,
                config=config,
                workload=TrafficWorkload(
                    events=tuple(
                        event
                        for event in workload.events
                        if assignment[event.session_id] == shard_id
                    ),
                    grids={s: workload.grids[s] for s in owned},
                    tag_positions={
                        s: workload.tag_positions[s] for s in owned
                    },
                    duration_s=workload.duration_s,
                ),
                fault_plan=fault_plan,
                seed=seeds[index],
                cache_dir=(
                    str(cache.cache_dir) if cache is not None else None
                ),
            )
        )
    with tracing.span(
        "serve.shard.run",
        shards=shards.n_shards,
        backend=shards.backend,
        events=len(workload.events),
    ):
        if shards.backend == "process" and shards.n_shards > 1:
            results = map_in_processes(
                _replay_shard,
                payloads,
                max_workers=shards.max_workers or shards.n_shards,
            )
        else:
            results = [_replay_shard(payload) for payload in payloads]
    reports = [report for report, _, _ in results]
    registry = metrics.active_registry()
    if registry is not None:
        for payload, (report, snapshot, _) in zip(payloads, results):
            registry.merge_snapshot(snapshot)
            registry.set_gauge(
                f"serve.shard.{payload.index}.sessions",
                float(len(payload.workload.grids)),
            )
            registry.set_gauge(
                f"serve.shard.{payload.index}.applied",
                float(report.service.updates_applied),
            )
    latency_samples = [r.latency_samples_s for r in reports]
    recovery_samples = [r.recovery_samples_s for r in reports]
    handoff_samples = [r.handoff_samples_s for r in reports]
    return ShardedRunReport(
        service=merge_service_reports(
            [r.service for r in reports],
            latency_samples,
            recovery_samples,
            handoff_samples,
        ),
        offered=len(workload.events),
        duration_s=workload.duration_s,
        estimates={k: v for r in reports for k, v in r.estimates.items()},
        errors_m={k: v for r in reports for k, v in r.errors_m.items()},
        ladders={k: v for r in reports for k, v in r.ladders.items()},
        session_loss={
            k: v for r in reports for k, v in r.session_loss.items()
        },
        failures={k: v for r in reports for k, v in r.failures.items()},
        unadmitted=sum(r.unadmitted for r in reports),
        latency_samples_s=tuple(sorted(_pooled(latency_samples))),
        recovery_samples_s=tuple(_pooled(recovery_samples)),
        handoff_samples_s=tuple(_pooled(handoff_samples)),
        n_shards=shards.n_shards,
        assignment=assignment,
        per_shard=tuple(r.service for r in reports),
        injected=sum(injected for _, _, injected in results),
    )
