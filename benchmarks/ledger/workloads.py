"""The four ledger workloads, driven only through the program's public API.

Each workload turns ``(params, seed)`` into one *pass*: generate the
inputs, carry every read to a fix, and time the reads and the fixes on
the host. The program sees only the generated inputs; the seed of pass
``i`` is ``pass_seed(N, i)`` for run seed ``N``.

The serve replay is a closed loop with one client: the next read is
submitted once the previous ``submit`` and ``step`` have returned.
Arrival timestamps are the workload's virtual (modeled) ones.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple

import numpy as np

from repro import faults
from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import RFlyError
from repro.localization.pipeline import Localizer
from repro.mobility.groundtruth import OptiTrack
from repro.runtime.cache import ResultCache
from repro.scenarios import compiler, registry, trials
from repro.serve.config import ServeConfig
from repro.serve.queueing import Admission
from repro.serve.service import LocalizationService
from repro.serve.shard import ShardConfig, ShardedLocalizationService
from repro.soak.driver import fault_plan_for

#: Fault sites of the ``calm`` soak plan that shape the read stream
#: without failing an operation: lost poses and CRC-rejected frames
#: never become reads. Link drops (typed rejections) and shard reboots
#: (lost updates) are left out so that every attempted operation of a
#: workload succeeds.
STREAM_FAULT_SITES = ("mobility.pose", "gen2.frame")


@dataclass(frozen=True)
class SimOutputs:
    """What a pass computed, as opposed to how long it took.

    A pure speed change leaves every field bit-identical, so the traced
    run must reproduce the untraced run's outputs exactly.
    """

    reads: int
    attempted: int
    failed: int
    errors_m: Tuple[float, ...]
    #: Sorted arrival-to-applied latencies on the virtual clock.
    latencies_s: Tuple[float, ...] = ()
    busy_s: float = 0.0
    counts: Tuple[Tuple[str, int], ...] = ()
    injected: int = 0


@dataclass(frozen=True)
class PassResult:
    """One pass: its host timings and its simulated outputs."""

    wall_s: float
    read_times_s: Tuple[float, ...]
    fix_times_s: Tuple[float, ...]
    sim: SimOutputs


@dataclass(frozen=True)
class Workload:
    """A named input family and how one pass of it runs."""

    name: str
    why: str
    #: Passes whose outputs the simulated metrics pool; enough for at
    #: least 100 fixes, so a fix p90 has ten samples beyond it.
    min_passes: int
    params: Mapping[str, Any]
    smoke: Mapping[str, Any]
    serve: bool
    run_pass: Callable[[Mapping[str, Any], int], PassResult]
    pass_seed: Callable[[int, int], int]

    def resolved(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """``params`` with the scenario name resolved to its spec."""
        out = dict(params)
        out["scenario"] = registry.resolve(params["scenario"])
        return out


def _service_counts(report: Any) -> Tuple[Tuple[str, int], ...]:
    return (
        ("applied", report.updates_applied),
        ("degraded", report.updates_degraded),
        ("shed", report.updates_shed),
        ("rejected", report.updates_rejected),
        ("lost", report.updates_lost),
        ("catchup_poses", report.catchup_poses),
        ("handoffs", report.handoffs),
    )


def _replay(
    service: Any,
    workload: Any,
    latency_samples: Callable[[], List[float]],
) -> Tuple[Tuple[float, ...], Tuple[float, ...], SimOutputs]:
    """Closed-loop replay of one read stream, then one fix per session.

    Typed errors and non-accepted admissions count as failed
    operations; any other exception escapes to the caller.
    """
    session_ids = sorted(workload.grids)
    for session_id in session_ids:
        service.open_session(session_id, workload.grids[session_id], now_s=0.0)
    accepted: Dict[str, int] = dict.fromkeys(session_ids, 0)
    read_times: List[float] = []
    failed = 0
    for event in workload.events:
        start = time.perf_counter()
        try:
            admission = service.submit(
                event.session_id, event.measurement, now_s=event.time_s
            )
            service.step()
        except RFlyError:
            admission = None
        read_times.append(time.perf_counter() - start)
        if admission is Admission.ACCEPTED:
            accepted[event.session_id] += 1
        else:
            failed += 1
    fix_times: List[float] = []
    errors: List[float] = []
    fixes_requested = 0
    for session_id in session_ids:
        if accepted[session_id] < 2:
            continue
        fixes_requested += 1
        start = time.perf_counter()
        try:
            result = service.finalize(session_id, now_s=workload.duration_s)
        except RFlyError:
            failed += 1
            continue
        fix_times.append(time.perf_counter() - start)
        errors.append(
            float(
                np.linalg.norm(
                    result.position - workload.tag_positions[session_id]
                )
            )
        )
    report = service.report()
    reads = len(workload.events)
    sim = SimOutputs(
        reads=reads,
        attempted=reads + fixes_requested,
        failed=failed + report.updates_lost,
        errors_m=tuple(errors),
        latencies_s=tuple(sorted(latency_samples())),
        busy_s=report.busy_s,
        counts=_service_counts(report),
    )
    return tuple(read_times), tuple(fix_times), sim


def _single_service_pass(params: Mapping[str, Any], seed: int) -> PassResult:
    start = time.perf_counter()
    workload = compiler.generate_workload(
        params["scenario"],
        n_tags=params["n_tags"],
        seed=seed,
        load=params["load"],
        pose_spacing_m=params["pose_spacing_m"],
        grid_resolution=params["grid_resolution_m"],
        use_gen2_mac=params["use_gen2_mac"],
    )
    service = LocalizationService(
        ServeConfig(
            frequency_hz=UHF_CENTER_FREQUENCY,
            capacity_mode=params["capacity_mode"],
        )
    )
    read_times, fix_times, sim = _replay(
        service, workload, lambda: list(service.latency_samples())
    )
    return PassResult(
        time.perf_counter() - start, read_times, fix_times, sim
    )


def _fleet_pass(params: Mapping[str, Any], seed: int) -> PassResult:
    calm = fault_plan_for(params["fault_profile"])
    plan = faults.FaultPlan(
        tuple(s for s in calm.specs if s.site in STREAM_FAULT_SITES)
    )
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ledger-ckpt-") as checkpoints, faults.engaged(
        plan, seed=seed
    ) as engine:
        workload = compiler.generate_workload(
            params["scenario"],
            seed=seed,
            load=params["load"],
            pose_spacing_m=params["pose_spacing_m"],
            tracker=OptiTrack(),
        )
        service = ShardedLocalizationService(
            ServeConfig(
                frequency_hz=UHF_CENTER_FREQUENCY,
                capacity_mode="partitioned",
                session_ttl_s=1e9,
            ),
            ShardConfig(n_shards=params["shards"], seed=seed),
            cache=ResultCache(checkpoints),
        )
        read_times, fix_times, sim = _replay(
            service,
            workload,
            lambda: [
                sample
                for worker in service.workers
                for sample in worker.latency_samples()
            ],
        )
        injected = len(engine.injections)
    sim = dataclasses.replace(sim, injected=injected)
    return PassResult(
        time.perf_counter() - start, read_times, fix_times, sim
    )


def _fig12_pass(params: Mapping[str, Any], seed: int) -> PassResult:
    start = time.perf_counter()
    trial = trials.warehouse_trial(params["scenario"], seed)
    localizer = Localizer(frequency_hz=UHF_CENTER_FREQUENCY)
    fix_start = time.perf_counter()
    try:
        result = localizer.locate(
            trial.measurements, search_grid=trial.search_grid
        )
    except RFlyError:
        errors: Tuple[float, ...] = ()
        fix_times: Tuple[float, ...] = ()
    else:
        fix_times = (time.perf_counter() - fix_start,)
        errors = (result.error_to(trial.tag_position),)
    reads = len(trial.measurements)
    sim = SimOutputs(
        reads=reads,
        attempted=reads + 1,
        failed=1 - len(errors),
        errors_m=errors,
    )
    return PassResult(time.perf_counter() - start, (), fix_times, sim)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense_inventory",
            why=(
                "tag-dense shelf: the Gen2 MAC dominates and the shared "
                "server falls to the DEGRADED rung, so finalize catches up"
            ),
            min_passes=5,
            params={
                "scenario": "conveyor_flow_through",
                "n_tags": 20,
                "use_gen2_mac": True,
                "pose_spacing_m": 0.08,
                "grid_resolution_m": 0.10,
                "load": 6.0,
                "capacity_mode": "shared",
            },
            smoke={
                "scenario": "conveyor_flow_through",
                "n_tags": 3,
                "use_gen2_mac": True,
                "pose_spacing_m": 0.10,
                "grid_resolution_m": 0.10,
                "load": 6.0,
                "capacity_mode": "shared",
            },
            serve=True,
            run_pass=_single_service_pass,
            pass_seed=lambda seed, index: seed + index,
        ),
        Workload(
            name="fine_stream",
            why=(
                "production-accuracy 5 cm grid with the MAC bypassed: the "
                "batched fold and finalize dominate, Gen2 does nothing"
            ),
            min_passes=9,
            params={
                "scenario": "conveyor_flow_through",
                "n_tags": 12,
                "use_gen2_mac": False,
                "pose_spacing_m": 0.02,
                "grid_resolution_m": 0.05,
                "load": 4.0,
                "capacity_mode": "partitioned",
            },
            smoke={
                "scenario": "conveyor_flow_through",
                "n_tags": 2,
                "use_gen2_mac": False,
                "pose_spacing_m": 0.05,
                "grid_resolution_m": 0.10,
                "load": 4.0,
                "capacity_mode": "partitioned",
            },
            serve=True,
            run_pass=_single_service_pass,
            pass_seed=lambda seed, index: seed + index,
        ),
        Workload(
            name="fleet_soak",
            why=(
                "deployment path: two relays with handoffs, stream faults, "
                "and a 4-shard service, so per-read routing overhead shows"
            ),
            min_passes=25,
            params={
                "scenario": "aisle_crossover_handoff",
                "pose_spacing_m": 0.05,
                "load": 8.0,
                "shards": 4,
                "fault_profile": "calm",
            },
            smoke={
                "scenario": "aisle_crossover_handoff",
                "pose_spacing_m": 0.10,
                "load": 8.0,
                "shards": 4,
                "fault_profile": "calm",
            },
            serve=True,
            run_pass=_fleet_pass,
            pass_seed=lambda seed, index: seed + index,
        ),
        Workload(
            name="fig12_regen",
            why=(
                "paper-figure path: walled multipath and the batch "
                "Localizer, no Gen2 and no serve, so serve changes must "
                "not move it"
            ),
            min_passes=100,
            params={"scenario": "paper_warehouse_two_floor"},
            smoke={"scenario": "paper_warehouse_two_floor"},
            serve=False,
            run_pass=_fig12_pass,
            # At seed 0 the first 100 passes are the Fig. 12 campaign.
            pass_seed=lambda seed, index: seed * 10_000 + index,
        ),
    )
}

