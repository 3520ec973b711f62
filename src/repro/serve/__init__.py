"""Online streaming localization serving (the inference-serving layer).

RFly's estimates are computed from measurements accumulated *while the
drone flies* (Eq. 10-12); this package serves them that way. Per-pose
measurements stream into per-tag sessions; a micro-batch scheduler
coalesces pending updates into vectorized grid projections on a
virtual-time cost model; bounded queues shed overload at ingest; and a
latency SLO walks an explicit degradation ladder (full grid -> coarse
multires grid -> shed) whose deferred work is caught up *exactly*
later, because the SAR accumulation is linear.

Layout:

* :mod:`~repro.serve.config` — :class:`ServeConfig`: SLOs, bounds, and
  the deterministic virtual cost model.
* :mod:`~repro.serve.clock` — the monotonic virtual clock.
* :mod:`~repro.serve.queueing` — bounded buffers + admission control.
* :mod:`~repro.serve.session` — :class:`TagSession` (dual incremental
  accumulators) and the TTL/checkpoint :class:`SessionStore`.
* :mod:`~repro.serve.scheduler` — deterministic micro-batch rounds and
  the degradation decision.
* :mod:`~repro.serve.service` — the :class:`LocalizationService`
  facade (submit / step / estimate / finalize).
* :mod:`~repro.serve.traffic` — the replayable workload stream and
  :func:`~repro.serve.traffic.replay`, the one loop that drives a
  stream through a service and returns its books as a
  :class:`ServeRunReport` (:func:`repro.scenarios.compiler.generate_workload`
  builds streams from named scenarios).
* :mod:`~repro.serve.shard` — consistent-hash sharding across ``M``
  independent workers, each replayed by the same loop, bit-identical
  (under partitioned capacity isolation) to the unsharded service.

``python -m repro.serve`` smoke-runs a generated workload against the
service and (with ``--obs-dir``) writes trace/metrics artifacts.
"""

from __future__ import annotations

from repro.serve.clock import VirtualClock
from repro.serve.config import ServeConfig
from repro.serve.queueing import Admission, BoundedBuffer, PendingUpdate
from repro.serve.scheduler import BatchPlan, MicroBatchScheduler
from repro.serve.service import (
    LocalizationService,
    ServiceReport,
    StepReport,
)
from repro.serve.session import SessionStats, SessionStore, TagSession
from repro.serve.shard import (
    ShardConfig,
    ShardedLocalizationService,
    ShardedRunReport,
    ShardRing,
    run_sharded_workload,
)
from repro.serve.traffic import (
    ServeRunReport,
    TrafficWorkload,
    UpdateEvent,
    replay,
    run_workload,
)

__all__ = [
    "Admission",
    "BatchPlan",
    "BoundedBuffer",
    "LocalizationService",
    "MicroBatchScheduler",
    "PendingUpdate",
    "ServeConfig",
    "ServeRunReport",
    "ServiceReport",
    "SessionStats",
    "SessionStore",
    "ShardConfig",
    "ShardRing",
    "ShardedLocalizationService",
    "ShardedRunReport",
    "StepReport",
    "TagSession",
    "TrafficWorkload",
    "UpdateEvent",
    "VirtualClock",
    "replay",
    "run_sharded_workload",
    "run_workload",
]
