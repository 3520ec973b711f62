"""The virtual-clock soak driver: hours of traffic as seeded epoch tasks.

A soak run models the paper's warehouse deployment story — continuous
inventory over hours of flight — as a sequence of **epochs**, one per
snapshot interval: every ``snapshot_every_s`` of virtual time the
drone fleet flies one inventory pass of the scenario and the resulting
Gen2 read stream replays through the *sharded* serving layer with the
run's fault plan engaged (faults shape the stream itself, exactly as
in the ``resilience`` experiment). Each epoch reduces to one
:class:`~repro.soak.snapshot.SoakSnapshot`.

Epochs ride the :mod:`repro.runtime` sweep engine as ordinary
:class:`~repro.runtime.SweepTask` s: epoch seeds are spawned up front
from the run seed via the engine's ``SeedSequence`` discipline, so a
soak is a pure function of its :class:`SoakConfig` and the serial and
process-pool backends produce bit-identical snapshot streams
(hypothesis-pinned). Everything downstream — the trend file, the gate
— therefore diffs behavior, never scheduling noise.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple, Union

from repro import codec, faults
from repro.errors import ConfigurationError
from repro.mobility.groundtruth import OptiTrack
from repro.obs import tracing
from repro.runtime import SweepTask
from repro.runtime.cache import ResultCache
from repro.runtime.seeding import spawn_task_seeds
from repro.scenarios import registry as scenario_registry
from repro.scenarios.compiler import generate_workload
from repro.scenarios.spec import Scenario
from repro.serve.config import ServeConfig
from repro.serve.shard import ShardConfig, run_sharded_workload
from repro.soak.snapshot import SoakSnapshot

#: Named fault plans engaged for the whole soak horizon. Rates are
#: per-eligible-call Bernoulli probabilities (see ``repro.faults``),
#: chosen to model a realistic warehouse shift rather than a stress
#: test: occasional link blockage, sporadic pose dropouts, rare frame
#: corruption, and (beyond ``none``) a bounded number of worker
#: reboots exercising checkpoint failover.
FAULT_PROFILES: Dict[str, faults.FaultPlan] = {
    "none": faults.FaultPlan(),
    "calm": faults.FaultPlan(
        (
            faults.FaultSpec("channel.link", "drop", rate=0.02),
            faults.FaultSpec("mobility.pose", "pose_loss", rate=0.01),
            faults.FaultSpec(
                "gen2.frame", "corrupt_bits", rate=0.005, magnitude=2.0
            ),
            faults.FaultSpec(
                "serve.shard", "reboot", rate=0.002, max_injections=1
            ),
        )
    ),
    "stormy": faults.FaultPlan(
        (
            faults.FaultSpec("channel.link", "drop", rate=0.08),
            faults.FaultSpec("mobility.pose", "pose_loss", rate=0.04),
            faults.FaultSpec(
                "gen2.frame", "corrupt_bits", rate=0.02, magnitude=2.0
            ),
            faults.FaultSpec(
                "serve.shard", "reboot", rate=0.01, max_injections=2
            ),
            faults.FaultSpec(
                "serve.ingest", "stall", rate=0.02, magnitude=0.02
            ),
        )
    ),
}


def fault_plan_for(profile: str) -> faults.FaultPlan:
    """The fault plan of one named soak profile."""
    plan = FAULT_PROFILES.get(profile)
    if plan is None:
        known = ", ".join(sorted(FAULT_PROFILES))
        raise ConfigurationError(
            f"unknown soak fault profile {profile!r}; choices: {known}"
        )
    return plan


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run depends on (and nothing else)."""

    scenario: Union[str, Scenario] = "warehouse_twin_aisle"
    #: Virtual soak horizon. ``n_epochs`` intervals of
    #: ``snapshot_every_s`` cover it (the last one may overhang).
    hours: float = 2.0
    snapshot_every_s: float = 600.0
    shards: int = 2
    n_tags: "int | None" = None
    load: float = 8.0
    grid_resolution: float = 0.10
    latency_slo_s: float = 0.25
    fault_profile: str = "calm"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hours <= 0:
            raise ConfigurationError("soak horizon must be positive")
        if self.snapshot_every_s <= 0:
            raise ConfigurationError("snapshot interval must be positive")
        if self.shards < 1:
            raise ConfigurationError("soak needs at least one shard")
        if self.load <= 0:
            raise ConfigurationError("load factor must be positive")
        fault_plan_for(self.fault_profile)  # validates the name

    @property
    def n_epochs(self) -> int:
        """Snapshot intervals covering the horizon (at least one)."""
        return max(1, math.ceil(self.hours * 3600.0 / self.snapshot_every_s))


def soak_epoch(
    scenario_json: str,
    epoch: int,
    interval_s: float,
    shards: int,
    n_tags: "int | None",
    load: float,
    grid_resolution: float,
    latency_slo_s: float,
    fault_plan_json: str,
    seed: int,
) -> Dict[str, Any]:
    """One snapshot interval: fly a pass, serve it, snapshot the service.

    The fault plan is engaged *around workload generation* — injected
    link blockage, pose loss, and frame corruption shape the event
    stream — and handed to the sharded replay, which spawns per-shard
    engines from this epoch's seed (worker reboots land
    deterministically). Checkpoints live in a per-epoch temporary
    cache so injected kills exercise the restore path.

    Returns the snapshot as a plain dict (the sweep task payload).
    """
    spec = Scenario.from_json(scenario_json)
    plan = faults.FaultPlan.from_json(fault_plan_json)
    config = ServeConfig(
        frequency_hz=spec.radio.center_frequency_hz,
        latency_slo_s=latency_slo_s,
        capacity_mode="partitioned",
        session_ttl_s=1e9,
    )
    with tracing.span("soak.epoch", epoch=epoch, shards=shards):
        with tempfile.TemporaryDirectory(prefix="soak-ckpt-") as tmp_dir:
            with faults.engaged(plan, seed=seed) as engine:
                workload = generate_workload(
                    spec,
                    n_tags=n_tags,
                    seed=seed,
                    load=load,
                    grid_resolution=grid_resolution,
                    tracker=OptiTrack(),
                )
                report = run_sharded_workload(
                    workload,
                    config,
                    ShardConfig(n_shards=shards, seed=seed),
                    cache=ResultCache(tmp_dir),
                    fault_plan=plan,
                )
            injected = len(engine.injections) + report.injected
    service = report.service
    snapshot = SoakSnapshot(
        epoch=int(epoch),
        start_s=float(epoch) * float(interval_s),
        interval_s=float(interval_s),
        sessions=len(workload.grids),
        fixes=len(report.errors_m),
        offered=report.offered,
        applied=service.updates_applied,
        degraded=service.updates_degraded,
        shed=service.updates_shed,
        rejected=service.updates_rejected,
        lost=service.updates_lost,
        handoffs=service.handoffs,
        recoveries=service.recoveries,
        injected=injected,
        busy_s=service.busy_s,
        latency_samples_s=service.latency_samples_s,
        error_samples_m=tuple(
            sorted(float(e) for e in report.errors_m.values())
        ),
    )
    return codec.to_dict(snapshot)


def build_epoch_tasks(config: SoakConfig) -> List[SweepTask]:
    """One seeded sweep task per snapshot interval.

    Epoch seeds are spawned from ``config.seed`` before dispatch (the
    engine's ``SeedSequence`` discipline), so epoch ``i``'s stream
    depends only on ``(seed, i)`` — not on the backend, worker count,
    or which other epochs ran.
    """
    spec = scenario_registry.resolve(config.scenario)
    scenario_json = spec.to_json()
    plan_json = fault_plan_for(config.fault_profile).to_json()
    epoch_seeds = spawn_task_seeds(config.seed, config.n_epochs)
    return [
        SweepTask.make(
            soak_epoch,
            params={
                "scenario_json": scenario_json,
                "epoch": int(epoch),
                "interval_s": float(config.snapshot_every_s),
                "shards": int(config.shards),
                "n_tags": config.n_tags,
                "load": float(config.load),
                "grid_resolution": float(config.grid_resolution),
                "latency_slo_s": float(config.latency_slo_s),
                "fault_plan_json": plan_json,
            },
            seed=epoch_seeds[epoch],
            label=f"soak/e{epoch:03d}",
        )
        for epoch in range(config.n_epochs)
    ]


def snapshots_from_payloads(
    payloads: "Mapping[int, Any] | List[Any] | Tuple[Any, ...]",
) -> List[SoakSnapshot]:
    """Task payload dicts (in any order) -> typed snapshots."""
    if isinstance(payloads, Mapping):
        items: List[Any] = [payloads[key] for key in sorted(payloads)]
    else:
        items = list(payloads)
    return [
        codec.from_dict(SoakSnapshot, item, "soak_snapshot") for item in items
    ]
