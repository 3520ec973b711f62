"""`resilience`: fault class x fault rate -> error / failures / recovery.

Each task engages one :class:`~repro.faults.FaultPlan` (derived purely
from the swept fault class and rate), generates the Gen2-MAC workload
*under* that plan — so channel blackouts, pose dropouts, and corrupted
frames shape the event stream itself — and replays it through a
:class:`~repro.serve.service.LocalizationService` with its recovery
policies armed (bounded-backoff ingest retry, reference reacquisition
window, checkpoint-restore after injected kills).

The table quantifies the paper's degrade-loudly-never-wrongly claim
(§5.1) under each fault class: sessions either localize accurately,
are explicitly *rejected/degraded* along the way, or fail with a typed
error — the ``wrong`` column counts sessions that "succeeded" with an
error beyond ``wrong_threshold_m`` and must stay zero. Because the
engine is seeded through the runtime's ``SeedSequence`` discipline and
the service runs on a virtual clock, every cell (including recovery
latencies) is a pure function of the parameters: golden-testable, and
bit-identical between serial and process-pool sweeps.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro import faults
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentOutput, fmt
from repro.mobility.groundtruth import OptiTrack
from repro.runtime import SweepTask
from repro.runtime.cache import ResultCache
from repro.scenarios import registry as scenario_registry
from repro.scenarios.compiler import generate_workload
from repro.scenarios.spec import Scenario
from repro.serve.config import ServeConfig
from repro.serve.service import LocalizationService
from repro.serve.shard import ShardConfig, run_sharded_workload
from repro.serve.traffic import replay

#: The swept fault classes, each mapping to one canned plan.
FAULT_CLASSES: Tuple[str, ...] = (
    "none",
    "blockage",
    "outage",
    "pose_loss",
    "bit_corruption",
    "ingest_faults",
    "service_kill",
    "shard_kill",
)

DEFAULT_RATES: Tuple[float, ...] = (0.05, 0.3)

#: Reference reacquisition window used by the swept service; short
#: enough that a sustained injected blackout escalates to a typed
#: ReferenceLostError instead of an endless rejected-update stream.
_REFERENCE_TIMEOUT_S = 0.1

#: Virtual stall charged per injected ingest stall, seconds.
_STALL_S = 0.02

#: Bits flipped per injected frame corruption.
_CORRUPT_BITS = 2.0

#: Fleet size of the `shard_kill` class: injected worker reboots land
#: on a consistent-hash sharded service of this many workers.
_SHARD_KILL_SHARDS = 4

#: Shape of the `outage` class: a contiguous blackout of the radio
#: link starting at this channel-query index, spanning ``rate`` times
#: this many queries (~2 queries per delivered event).
_OUTAGE_START_CALL = 150.0
_OUTAGE_SPAN_CALLS = 600.0


def plan_for(fault_class: str, rate: float) -> faults.FaultPlan:
    """The canned fault plan of one swept (class, rate) cell."""
    if fault_class == "none" or rate == 0.0:
        return faults.FaultPlan()
    if fault_class == "blockage":
        return faults.FaultPlan.single("channel.link", "drop", rate=rate)
    if fault_class == "outage":
        # One sustained blackout (drone behind a metal obstruction)
        # whose length scales with ``rate`` — long outages outlast the
        # reference-reacquisition window and must fail *typed*. A rate
        # too small to move the window's end past float resolution
        # leaves the window empty: no call is dropped.
        stop = _OUTAGE_START_CALL + rate * _OUTAGE_SPAN_CALLS
        if stop <= _OUTAGE_START_CALL:
            return faults.FaultPlan()
        window = faults.Trigger(
            kind="call_window", start=_OUTAGE_START_CALL, stop=stop
        )
        return faults.FaultPlan.single("channel.link", "drop", trigger=window)
    if fault_class == "pose_loss":
        return faults.FaultPlan.single("mobility.pose", "pose_loss", rate=rate)
    if fault_class == "bit_corruption":
        return faults.FaultPlan.single(
            "gen2.frame", "corrupt_bits", rate=rate, magnitude=_CORRUPT_BITS
        )
    if fault_class == "ingest_faults":
        return faults.FaultPlan(
            (
                faults.FaultSpec(
                    "serve.ingest", "stall", rate=rate, magnitude=_STALL_S
                ),
                faults.FaultSpec("serve.ingest", "drop", rate=rate),
            )
        )
    if fault_class == "service_kill":
        return faults.FaultPlan.single("serve.session", "reboot", rate=rate)
    if fault_class == "shard_kill":
        return faults.FaultPlan.single("serve.shard", "reboot", rate=rate)
    known = ", ".join(FAULT_CLASSES)
    raise ConfigurationError(
        f"unknown fault class {fault_class!r}; choices: {known}"
    )


@dataclass
class ResilienceResult:
    """One summary row per swept (fault class, rate) cell."""

    rows: List[Dict[str, Any]]


def _resilience_point(
    scenario_json: str,
    fault_class: str,
    rate: float,
    n_tags: int,
    load: float,
    grid_resolution: float,
    latency_slo_s: float,
    wrong_threshold_m: float,
    seed: int,
) -> Dict[str, Any]:
    """One swept cell: engage the plan, generate, replay, summarize."""
    spec = Scenario.from_json(scenario_json)
    frequency_hz = spec.radio.center_frequency_hz
    plan = plan_for(fault_class, rate)
    with tempfile.TemporaryDirectory(prefix="resilience-ckpt-") as tmp_dir:
        cache = ResultCache(tmp_dir)
        with faults.engaged(plan, seed=seed) as engine:
            workload = generate_workload(
                spec,
                n_tags=n_tags,
                seed=seed,
                load=load,
                grid_resolution=grid_resolution,
                tracker=OptiTrack(),
            )
            if fault_class == "shard_kill":
                # Worker reboots only exist on the sharded service:
                # replay through the consistent-hash fleet (which
                # engages per-shard engines spawned from this seed).
                report = run_sharded_workload(
                    workload,
                    ServeConfig(
                        frequency_hz=frequency_hz,
                        latency_slo_s=latency_slo_s,
                        reference_timeout_s=_REFERENCE_TIMEOUT_S,
                        capacity_mode="partitioned",
                    ),
                    ShardConfig(n_shards=_SHARD_KILL_SHARDS, seed=seed),
                    cache=cache,
                    fault_plan=plan,
                )
                injected = report.injected
            else:
                service = LocalizationService(
                    ServeConfig(
                        frequency_hz=frequency_hz,
                        latency_slo_s=latency_slo_s,
                        reference_timeout_s=_REFERENCE_TIMEOUT_S,
                    ),
                    cache=cache,
                )
                report = replay(service, workload, contain=True)
                injected = 0
        injected += len(engine.injections)
    errors_m = report.errors_m
    # A fix from a stream with known data loss was loudly declared
    # degraded: only an *unflagged* bad fix counts as silently wrong.
    flagged = {sid for sid in errors_m if sid in report.session_loss}
    errors = np.asarray(sorted(errors_m.values()), dtype=float)
    wrong = sum(
        1
        for session_id, error_m in errors_m.items()
        if error_m > wrong_threshold_m and session_id not in flagged
    )
    return {
        "fault_class": fault_class,
        "rate": float(rate),
        "events": len(workload.events),
        "injected": injected,
        "rejected": report.service.updates_rejected,
        "sessions": len(workload.grids),
        "failed": len(report.failures),
        "flagged": len(flagged),
        "failure_kinds": ",".join(sorted(set(report.failures.values()))),
        "recoveries": report.service.recoveries,
        "recovery_latency_s": report.service.mean_recovery_latency_s,
        "mean_error_m": float(errors.mean()) if errors.size else float("nan"),
        "max_error_m": float(errors.max()) if errors.size else float("nan"),
        "wrong": wrong,
    }


def build_tasks(
    classes: Sequence[str] = FAULT_CLASSES,
    rates: Sequence[float] = DEFAULT_RATES,
    n_tags: int = 4,
    load: float = 8.0,
    grid_resolution: float = 0.10,
    latency_slo_s: float = 0.25,
    wrong_threshold_m: float = 0.75,
    seed: int = 0,
    scenario: "str | Scenario" = "conveyor_flow_through",
) -> List[SweepTask]:
    """One task per (fault class, rate) cell; `none` runs once."""
    scenario_json = scenario_registry.resolve(scenario).to_json()
    tasks: List[SweepTask] = []
    for fault_class in classes:
        cell_rates = rates if fault_class != "none" else rates[:1]
        for rate in cell_rates:
            tasks.append(
                SweepTask.make(
                    _resilience_point,
                    params={
                        "scenario_json": scenario_json,
                        "fault_class": str(fault_class),
                        "rate": float(rate),
                        "n_tags": n_tags,
                        "load": float(load),
                        "grid_resolution": grid_resolution,
                        "latency_slo_s": latency_slo_s,
                        "wrong_threshold_m": wrong_threshold_m,
                    },
                    seed=seed,
                    label=f"resilience/{fault_class}@{rate:g}",
                )
            )
    return tasks


def reduce(
    payloads: Sequence[Dict[str, Any]], params: Mapping[str, Any]
) -> ResilienceResult:
    """Per-cell rows in task order -> the resilience result."""
    return ResilienceResult(rows=[dict(row) for row in payloads])


def format_result(result: ResilienceResult) -> ExperimentOutput:
    """Render the fault-class x rate resilience table."""
    rows = [
        [
            str(row["fault_class"]),
            f"{row['rate']:.2f}",
            str(int(row["events"])),
            str(int(row["injected"])),
            str(int(row["rejected"])),
            f"{int(row['failed'])}/{int(row['sessions'])}",
            str(int(row["flagged"])),
            str(int(row["recoveries"])),
            f"{row['recovery_latency_s'] * 1e3:.2f}",
            fmt(row["mean_error_m"]),
            str(int(row["wrong"])),
        ]
        for row in result.rows
    ]
    total_wrong = sum(int(row["wrong"]) for row in result.rows)
    total_failed = sum(int(row["failed"]) for row in result.rows)
    total_recoveries = sum(int(row["recoveries"]) for row in result.rows)
    measured = {
        "silently wrong fixes": str(total_wrong),
        "explicit failures": str(total_failed),
        "recoveries": str(total_recoveries),
    }
    return ExperimentOutput(
        name="resilience — fault injection vs the degradation ladder",
        headers=[
            "class",
            "rate",
            "events",
            "injected",
            "rejected",
            "failed",
            "flagged",
            "recov",
            "rec (ms)",
            "err (m)",
            "wrong",
        ],
        rows=rows,
        paper_claims={"silently wrong fixes": "0 (degrade loudly, §5.1)"},
        measured=measured,
        notes=(
            "Every fault either recovers (bounded retry, reference "
            "reacquisition, checkpoint-restore), is rejected loudly, or "
            "fails the session with a typed error; `flagged` fixes were "
            "declared degraded by the service (known data loss), and "
            "`wrong` counts *unflagged* fixes beyond the error "
            "threshold — it must be 0."
        ),
    )


if __name__ == "__main__":  # pragma: no cover - manual regeneration
    from repro.experiments import registry

    print(registry.run_experiment("resilience").outputs[0].report())
