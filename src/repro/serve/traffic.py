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
:func:`replay` is the one loop that drives a stream through a service
and keeps the books; :func:`run_workload` replays into a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import faults
from repro.errors import InsufficientMeasurementsError, RFlyError
from repro.localization.grid import Grid2D
from repro.localization.measurement import ThroughRelayMeasurement
from repro.obs import tracing
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
    """One workload replayed through the service: its whole books.

    Every session ends in exactly one of ``errors_m`` (it produced a
    fix) and ``failures`` (the typed error class that took it down).
    Every offered event either got an admission decision — counted by
    ``service`` as accepted, shed or rejected — or is ``unadmitted``
    (its submit raised, or its session had already failed).
    """

    service: ServiceReport
    offered: int
    duration_s: float
    estimates: Dict[str, np.ndarray]
    errors_m: Dict[str, float]
    ladders: Dict[str, Tuple[Tuple[int, str], ...]]
    #: Updates each session lost (rejected, shed, or dropped by a
    #: kill); only nonzero entries. A fix with loss is flagged.
    session_loss: Dict[str, int]
    failures: Dict[str, str]
    unadmitted: int

    @property
    def throughput_per_s(self) -> float:
        """Applied updates per virtual busy second."""
        return self.service.updates_applied / max(self.service.busy_s, 1e-12)

    @property
    def shed_fraction(self) -> float:
        """Share of offered updates shed at ingest."""
        return self.service.updates_shed / max(1, self.offered)

    @property
    def degraded_fraction(self) -> float:
        """Share of applied updates folded on the degraded grid."""
        return self.service.updates_degraded / max(
            1, self.service.updates_applied
        )


def replay(
    service: LocalizationService,
    workload: TrafficWorkload,
    finalize_at_s: Optional[float] = None,
    shard_index: Optional[int] = None,
    contain: bool = False,
) -> ServeRunReport:
    """Replay a workload through ``service`` and finalize every session.

    Sessions open in sorted order. Every event submits at its own
    virtual timestamp and is followed by one scheduling round — the
    event-driven serving loop; events of a session that already failed
    are skipped. With ``shard_index`` the ``serve.shard`` reboot hook of
    that worker is checked at each event time. With ``contain`` a typed
    :class:`~repro.errors.RFlyError` from submit, step or drain becomes
    its session's failure instead of propagating.

    After the drain every session finalizes in sorted order at
    ``finalize_at_s`` (``None``: the service clock). A live session
    with fewer than two poses is not finalized — that would charge the
    virtual server for a fix that cannot exist — and fails as
    :class:`~repro.errors.InsufficientMeasurementsError`; a typed error
    from finalize (say, a killed session with no checkpoint) is that
    session's failure.
    """
    for session_id in sorted(workload.grids):
        service.open_session(session_id, workload.grids[session_id], now_s=0.0)
    failures: Dict[str, str] = {}
    unadmitted = 0
    for event in workload.events:
        if event.session_id in failures:
            unadmitted += 1
            continue
        if shard_index is not None and faults.rebooted(
            "serve.shard", index=shard_index, now_s=event.time_s
        ):
            service.kill_sessions(event.time_s)
        admitted = False
        try:
            service.submit(
                event.session_id, event.measurement, now_s=event.time_s
            )
            admitted = True
            service.step()
        except RFlyError as error:
            if not contain:
                raise
            failures[event.session_id] = type(error).__name__
            if not admitted:
                unadmitted += 1
    try:
        service.drain()
    except RFlyError:
        if not contain:
            raise
    estimates: Dict[str, np.ndarray] = {}
    errors_m: Dict[str, float] = {}
    ladders: Dict[str, Tuple[Tuple[int, str], ...]] = {}
    for session_id in sorted(workload.grids):
        if session_id in failures:
            continue
        live = service.store.sessions().get(session_id)
        if live is not None and live.degraded.n_poses < 2:
            failures[session_id] = InsufficientMeasurementsError.__name__
            continue
        try:
            result = service.finalize(session_id, now_s=finalize_at_s)
        except RFlyError as error:
            failures[session_id] = type(error).__name__
            continue
        estimates[session_id] = result.position
        errors_m[session_id] = float(
            np.linalg.norm(
                result.position - workload.tag_positions[session_id]
            )
        )
        ladders[session_id] = service.final_ladder(session_id)
    return ServeRunReport(
        service=service.report(),
        offered=len(workload.events),
        duration_s=workload.duration_s,
        estimates=estimates,
        errors_m=errors_m,
        ladders=ladders,
        session_loss={
            session_id: service.session_data_loss(session_id)
            for session_id in sorted(workload.grids)
            if service.session_data_loss(session_id)
        },
        failures=failures,
        unadmitted=unadmitted,
    )


def run_workload(
    workload: TrafficWorkload, config: ServeConfig
) -> ServeRunReport:
    """Replay a workload through a fresh service (:func:`replay`)."""
    with tracing.span("serve.run", events=len(workload.events)):
        return replay(LocalizationService(config), workload)
