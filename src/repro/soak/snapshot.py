"""Per-interval soak snapshots and their order-insensitive reduction.

A :class:`SoakSnapshot` is one snapshot interval's worth of service
metrics — counters plus the *raw sorted* latency and error samples, so
whole-run percentiles are computed from the pooled population instead
of averaging per-interval percentiles (the same sample-pooling rule
:func:`repro.serve.shard.merge_service_reports` applies across
shards).

:func:`summarize_snapshots` folds any permutation of the same
snapshots to the same :class:`SoakSummary`: counters add, samples pool
and re-sort, and epoch coverage is rebuilt from the snapshots' own
indices. The hypothesis suite pins the permutation invariance — it is
what makes the summary independent of sweep backend and task
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro import codec
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SoakSnapshot:
    """Service metrics for one snapshot interval of a soak run."""

    #: Zero-based snapshot interval index.
    epoch: int
    #: Virtual start of the interval within the soak horizon.
    start_s: float
    #: Virtual length of the interval.
    interval_s: float
    #: Sessions opened / sessions that produced a final fix.
    sessions: int
    fixes: int
    #: Update-stream accounting (offered = generated events).
    offered: int
    applied: int
    degraded: int
    shed: int
    rejected: int
    lost: int
    #: Fleet/fault accounting.
    handoffs: int
    recoveries: int
    injected: int
    #: Virtual busy time of the service during the interval.
    busy_s: float
    #: Raw per-update latency samples, sorted ascending.
    latency_samples_s: Tuple[float, ...]
    #: Raw per-session localization errors, sorted ascending.
    error_samples_m: Tuple[float, ...]

    def __post_init__(self) -> None:
        codec.coerce(self)
        for field_name in ("latency_samples_s", "error_samples_m"):
            samples = getattr(self, field_name)
            if any(
                samples[i] > samples[i + 1]
                for i in range(len(samples) - 1)
            ):
                object.__setattr__(self, field_name, tuple(sorted(samples)))


@dataclass(frozen=True)
class SoakSummary:
    """One soak run reduced to the trend file's compact metric set."""

    epochs: int
    virtual_hours: float
    sessions: int
    fixes: int
    offered: int
    applied: int
    degraded: int
    shed: int
    rejected: int
    lost: int
    handoffs: int
    recoveries: int
    injected: int
    busy_s: float
    throughput_per_s: float
    p50_latency_ms: float
    p99_latency_ms: float
    mean_error_m: float
    max_error_m: float
    degraded_fraction: float
    shed_fraction: float
    failure_fraction: float


def _percentile_ms(samples: "np.ndarray", q: float) -> float:
    """Percentile of pooled latency samples, in milliseconds."""
    if samples.size == 0:
        return 0.0
    return float(np.percentile(samples, q)) * 1e3


def summarize_snapshots(
    snapshots: Sequence[SoakSnapshot],
) -> SoakSummary:
    """Fold snapshots into the run summary, order-insensitively.

    Counters add; percentiles and error statistics come from the
    pooled, re-sorted sample populations, so any permutation of the
    same snapshots reduces to a bitwise-identical summary (hypothesis-
    pinned). Duplicate epoch indices are rejected loudly — they would
    silently double-count an interval.
    """
    if not snapshots:
        raise ConfigurationError("cannot summarize zero soak snapshots")
    epochs = sorted(snapshot.epoch for snapshot in snapshots)
    if len(set(epochs)) != len(epochs):
        raise ConfigurationError(
            f"duplicate snapshot epochs in soak reduction: {epochs}"
        )
    latencies = np.sort(
        np.asarray(
            [
                sample
                for snapshot in snapshots
                for sample in snapshot.latency_samples_s
            ],
            dtype=float,
        )
    )
    errors = np.sort(
        np.asarray(
            [
                sample
                for snapshot in snapshots
                for sample in snapshot.error_samples_m
            ],
            dtype=float,
        )
    )
    sessions = sum(snapshot.sessions for snapshot in snapshots)
    fixes = sum(snapshot.fixes for snapshot in snapshots)
    offered = sum(snapshot.offered for snapshot in snapshots)
    applied = sum(snapshot.applied for snapshot in snapshots)
    degraded = sum(snapshot.degraded for snapshot in snapshots)
    shed = sum(snapshot.shed for snapshot in snapshots)
    # Sorting canonicalizes float summation order: busy times add the
    # same whichever way the snapshots arrive.
    busy_s = float(
        np.sum(np.sort(np.asarray([s.busy_s for s in snapshots])))
    )
    virtual_s = float(
        np.sum(np.sort(np.asarray([s.interval_s for s in snapshots])))
    )
    return SoakSummary(
        epochs=len(snapshots),
        virtual_hours=virtual_s / 3600.0,
        sessions=sessions,
        fixes=fixes,
        offered=offered,
        applied=applied,
        degraded=degraded,
        shed=shed,
        rejected=sum(snapshot.rejected for snapshot in snapshots),
        lost=sum(snapshot.lost for snapshot in snapshots),
        handoffs=sum(snapshot.handoffs for snapshot in snapshots),
        recoveries=sum(snapshot.recoveries for snapshot in snapshots),
        injected=sum(snapshot.injected for snapshot in snapshots),
        busy_s=busy_s,
        throughput_per_s=applied / max(busy_s, 1e-12),
        p50_latency_ms=_percentile_ms(latencies, 50.0),
        p99_latency_ms=_percentile_ms(latencies, 99.0),
        mean_error_m=float(errors.mean()) if errors.size else 0.0,
        max_error_m=float(errors.max()) if errors.size else 0.0,
        degraded_fraction=degraded / max(1, applied),
        shed_fraction=shed / max(1, offered),
        failure_fraction=(sessions - fixes) / max(1, sessions),
    )
