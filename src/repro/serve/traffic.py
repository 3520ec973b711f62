"""Traffic workloads and their replay through the service.

A :class:`TrafficWorkload` is a replayable stream of timestamped
:class:`UpdateEvent` reads plus each session's search grid and true
tag position. :func:`repro.scenarios.compiler.generate_workload`
lowers any named scenario to one: at every pose it runs the *actual*
Gen2 anti-collision MAC of :func:`repro.sim.events.inventory_at_pose`
to decide which tags the relay reads — so arrival patterns inherit the
MAC's contention (slow poses read fewer tags, singulation order varies
with the seed) instead of an idealized Poisson stream.

``load`` compresses the arrival timeline: the drone's physical flight
produces events over ``duration_s / load`` seconds, so ``load`` beyond
the service's capacity drives the backlog up and walks the service down
the degradation ladder — the axis the `serve` experiment sweeps.
:func:`run_workload` replays a stream through a fresh service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.localization.grid import Grid2D
from repro.localization.measurement import ThroughRelayMeasurement
from repro.obs import tracing
from repro.runtime.cache import ResultCache
from repro.serve.config import ServeConfig
from repro.serve.service import LocalizationService, ServiceReport


@dataclass(frozen=True)
class UpdateEvent:
    """One timestamped per-pose read destined for one session."""

    time_s: float
    session_id: str
    measurement: ThroughRelayMeasurement


@dataclass(frozen=True)
class TrafficWorkload:
    """A replayable stream of update events plus per-session context."""

    events: Tuple[UpdateEvent, ...]
    grids: Dict[str, Grid2D]
    tag_positions: Dict[str, np.ndarray]
    duration_s: float


@dataclass(frozen=True)
class ServeRunReport:
    """One workload replayed through the service, summarized."""

    service: ServiceReport
    offered: int
    duration_s: float
    throughput_per_s: float
    shed_fraction: float
    degraded_fraction: float
    estimates: Dict[str, np.ndarray]
    errors_m: Dict[str, float]


def run_workload(
    workload: TrafficWorkload,
    config: ServeConfig,
    cache: Optional[ResultCache] = None,
) -> ServeRunReport:
    """Replay a workload through a fresh service, then finalize all.

    Every event submits at its own virtual timestamp and is followed by
    one scheduling round — the event-driven serving loop. After the
    stream ends the service drains, every session finalizes (the
    batch-equivalent fine stage), and the virtual-time numbers are
    summarized.
    """
    service = LocalizationService(config, cache=cache)
    for session_id, grid in workload.grids.items():
        service.open_session(session_id, grid, now_s=0.0)
    with tracing.span("serve.run", events=len(workload.events)):
        for event in workload.events:
            service.submit(
                event.session_id, event.measurement, now_s=event.time_s
            )
            service.step()
        service.drain()
        estimates: Dict[str, np.ndarray] = {}
        errors_m: Dict[str, float] = {}
        for session_id in sorted(workload.grids):
            session = service.store.sessions().get(session_id)
            if session is None or session.degraded.n_poses < 2:
                continue
            result = service.finalize(session_id)
            estimates[session_id] = result.position
            errors_m[session_id] = float(
                np.linalg.norm(
                    result.position - workload.tag_positions[session_id]
                )
            )
    report = service.report()
    busy_s = max(report.busy_s, 1e-12)
    applied = report.updates_applied
    offered = len(workload.events)
    return ServeRunReport(
        service=report,
        offered=offered,
        duration_s=workload.duration_s,
        throughput_per_s=applied / busy_s,
        shed_fraction=report.updates_shed / max(1, offered),
        degraded_fraction=report.updates_degraded / max(1, applied),
        estimates=estimates,
        errors_m=errors_m,
    )
