"""`fleet_coverage`: read rate and accuracy vs fleet size, plus a
relay-selection policy shootout.

Two tables from one sweep. The first scales a single-aisle scenario to
``N`` relays with :func:`repro.fleet.plan.scale_fleet` (``N=1`` flies
the scenario's own relay bit for bit; larger fleets split the aisle
into ``N`` contiguous segments flown simultaneously on alternating
frequency slots — reuse-2) and replays each workload through the
serving layer with a ``relay.handoff`` drop fault engaged — so the
table reports coverage (reads per tag), accuracy, handoff counts, the
updates lost in handoff windows, and the **silent** column: sessions
whose fix came out wrong *without* the service flagging data loss.
That column must read 0 everywhere — a handoff may cost accuracy, but
never silently.

The second table races the three relay-selection policies
(:mod:`repro.fleet.selection`) across the two library fleet worlds:
parallel co-channel aisles (interference-limited) and an opposed
crossover pass (handoff-limited).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.experiments.runner import ExperimentOutput, fmt
from repro.fleet.plan import scale_fleet
from repro.runtime import SweepTask
from repro.scenarios import registry as scenario_registry
from repro.scenarios.compiler import generate_workload
from repro.scenarios.spec import Scenario
from repro.serve.config import ServeConfig
from repro.serve.shard import ShardConfig, run_sharded_workload

DEFAULT_FLEET_SIZES: Tuple[int, ...] = (1, 2, 4, 8)

POLICIES: Tuple[str, ...] = (
    "nearest",
    "best_link_budget",
    "epsilon_greedy",
)

#: The two library fleet worlds the policy shootout races over.
POLICY_SCENARIOS: Tuple[str, ...] = (
    "warehouse_twin_aisle",
    "aisle_crossover_handoff",
)


@dataclass
class FleetCoverageResult:
    """Fleet-size rows then policy-shootout rows, in sweep order."""

    scale_rows: List[Dict[str, Any]]
    policy_rows: List[Dict[str, Any]]


def _with_policy(spec: Scenario, policy: str) -> Scenario:
    """The scenario with its fleet's selection policy swapped."""
    if spec.fleet is None or spec.fleet.selection == policy:
        return spec
    return replace(spec, fleet=replace(spec.fleet, selection=policy))


def _replay(
    spec: Scenario,
    n_tags: Optional[int],
    load: float,
    grid_resolution: float,
    pose_spacing_m: Optional[float],
    latency_slo_s: float,
    handoff_drop_rate: float,
    wrong_threshold_m: float,
    seed: int,
) -> Dict[str, Any]:
    """Generate one fleet workload and replay it under handoff faults."""
    workload = generate_workload(
        spec,
        n_tags=n_tags,
        seed=seed,
        load=load,
        grid_resolution=grid_resolution,
        pose_spacing_m=pose_spacing_m,
    )
    config = ServeConfig(
        frequency_hz=spec.radio.center_frequency_hz,
        latency_slo_s=latency_slo_s,
        capacity_mode="partitioned",
        session_ttl_s=1e9,
    )
    plan = faults.FaultPlan.single(
        "relay.handoff", "drop", rate=handoff_drop_rate
    )
    report = run_sharded_workload(
        workload, config, ShardConfig(n_shards=1, seed=seed),
        fault_plan=plan,
    )
    relays_seen = sorted(
        {event.measurement.relay for event in workload.events}
    )
    errors = np.asarray(sorted(report.errors_m.values()), dtype=float)
    sessions = sorted(workload.grids)
    silent = sum(
        1
        for session_id in sessions
        if report.errors_m.get(session_id, 0.0) > wrong_threshold_m
        and report.session_loss.get(session_id, 0) == 0
    )
    return {
        "relays_serving": len(relays_seen),
        "sessions": len(sessions),
        "offered": int(report.offered),
        "reads_per_tag": report.offered / max(1, len(sessions)),
        "applied": int(report.service.updates_applied),
        "mean_error_m": (
            float(errors.mean()) if errors.size else float("nan")
        ),
        "handoffs": int(report.service.handoffs),
        "mean_handoff_latency_s": report.service.mean_handoff_latency_s,
        "handoff_loss": int(report.service.updates_rejected),
        "silent_wrong": int(silent),
    }


def _scale_point(
    scenario_json: str,
    fleet_size: int,
    n_tags: int,
    load: float,
    grid_resolution: float,
    pose_spacing_m: Optional[float],
    latency_slo_s: float,
    handoff_drop_rate: float,
    wrong_threshold_m: float,
    seed: int,
) -> Dict[str, Any]:
    """One fleet-size cell: scale the base scenario to ``N`` relays."""
    spec = scale_fleet(Scenario.from_json(scenario_json), fleet_size)
    row = _replay(
        spec,
        n_tags,
        load,
        grid_resolution,
        pose_spacing_m,
        latency_slo_s,
        handoff_drop_rate,
        wrong_threshold_m,
        seed,
    )
    return {"kind": "scale", "fleet_size": int(fleet_size), **row}


def _policy_point(
    scenario_json: str,
    policy: str,
    load: float,
    grid_resolution: float,
    pose_spacing_m: Optional[float],
    latency_slo_s: float,
    handoff_drop_rate: float,
    wrong_threshold_m: float,
    seed: int,
) -> Dict[str, Any]:
    """One shootout cell: a library fleet world under one policy."""
    spec = _with_policy(Scenario.from_json(scenario_json), policy)
    row = _replay(
        spec,
        None,
        load,
        grid_resolution,
        pose_spacing_m,
        latency_slo_s,
        handoff_drop_rate,
        wrong_threshold_m,
        seed,
    )
    return {
        "kind": "policy",
        "world": spec.name,
        "policy": policy,
        **row,
    }


def build_tasks(
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    policies: Sequence[str] = POLICIES,
    policy_scenarios: Sequence[str] = POLICY_SCENARIOS,
    n_tags: int = 4,
    load: float = 8.0,
    grid_resolution: float = 0.10,
    pose_spacing_m: Optional[float] = None,
    latency_slo_s: float = 0.25,
    handoff_drop_rate: float = 0.3,
    wrong_threshold_m: float = 0.75,
    seed: int = 0,
    scenario: "str | Scenario" = "conveyor_flow_through",
) -> List[SweepTask]:
    """Fleet-size tasks first, then (world x policy) shootout tasks."""
    scenario_json = scenario_registry.resolve(scenario).to_json()
    shared = {
        "load": float(load),
        "grid_resolution": grid_resolution,
        "pose_spacing_m": pose_spacing_m,
        "latency_slo_s": latency_slo_s,
        "handoff_drop_rate": float(handoff_drop_rate),
        "wrong_threshold_m": float(wrong_threshold_m),
    }
    tasks = [
        SweepTask.make(
            _scale_point,
            params={
                "scenario_json": scenario_json,
                "fleet_size": int(fleet_size),
                "n_tags": n_tags,
                **shared,
            },
            seed=seed,
            label=f"fleet_coverage/N{fleet_size}",
        )
        for fleet_size in fleet_sizes
    ]
    for world in policy_scenarios:
        world_json = scenario_registry.resolve(world).to_json()
        tasks.extend(
            SweepTask.make(
                _policy_point,
                params={
                    "scenario_json": world_json,
                    "policy": policy,
                    **shared,
                },
                seed=seed,
                label=f"fleet_coverage/{world}/{policy}",
            )
            for policy in policies
        )
    return tasks


def reduce(
    payloads: Sequence[Dict[str, Any]], params: Mapping[str, Any]
) -> FleetCoverageResult:
    """Split the flat payload list back into the two tables."""
    rows = [dict(row) for row in payloads]
    return FleetCoverageResult(
        scale_rows=[row for row in rows if row["kind"] == "scale"],
        policy_rows=[row for row in rows if row["kind"] == "policy"],
    )


def format_result(result: FleetCoverageResult) -> List[ExperimentOutput]:
    """Render the fleet-size table and the policy shootout."""
    scale_rows = [
        [
            str(int(row["fleet_size"])),
            f"{int(row['relays_serving'])}/{int(row['fleet_size'])}",
            str(int(row["offered"])),
            f"{row['reads_per_tag']:.1f}",
            fmt(row["mean_error_m"]),
            str(int(row["handoffs"])),
            str(int(row["handoff_loss"])),
            str(int(row["silent_wrong"])),
        ]
        for row in result.scale_rows
    ]
    silent_total = sum(
        int(row["silent_wrong"])
        for row in result.scale_rows + result.policy_rows
    )
    scale_table = ExperimentOutput(
        name="fleet_coverage — read rate and accuracy vs fleet size",
        headers=[
            "N",
            "serving",
            "offered",
            "reads/tag",
            "err (m)",
            "handoffs",
            "ho loss",
            "silent",
        ],
        rows=scale_rows,
        paper_claims={"silently wrong fixes": "0 (all loss flagged)"},
        measured={"silently wrong fixes": str(silent_total)},
        notes=(
            "N=1 is the single-relay flight bit for bit; larger fleets "
            "split the aisle into N simultaneous half-overlapping "
            "segments on alternating frequency slots (reuse-2), "
            "scanning in ~1/N the wall time at the cost of per-tag "
            "aperture; boundary tags hand off between neighbors and "
            "their fixes combine both relays' segments noncoherently. A "
            "relay.handoff drop fault is engaged throughout, so `ho "
            "loss` counts updates lost in handoff windows — every such "
            "loss must surface in session_loss (the `silent` column "
            "stays 0) rather than silently skewing a fix."
        ),
    )
    policy_rows = [
        [
            str(row["world"]),
            str(row["policy"]),
            str(int(row["offered"])),
            fmt(row["mean_error_m"]),
            str(int(row["handoffs"])),
            f"{row['mean_handoff_latency_s'] * 1e3:.2f}",
            str(int(row["silent_wrong"])),
        ]
        for row in result.policy_rows
    ]
    policy_table = ExperimentOutput(
        name="fleet_coverage — relay-selection policy shootout",
        headers=[
            "world",
            "policy",
            "offered",
            "err (m)",
            "handoffs",
            "ho p50 (ms)",
            "silent",
        ],
        rows=policy_rows,
        paper_claims={},
        measured={},
        notes=(
            "warehouse_twin_aisle is interference-limited (both relays "
            "share one frequency slot); aisle_crossover_handoff is "
            "handoff-limited (opposed passes swap every tag's nearest "
            "relay mid-flight). epsilon_greedy draws exploration from "
            "a SeedSequence child of the task seed, so rows are "
            "deterministic."
        ),
    )
    return [scale_table, policy_table]


if __name__ == "__main__":  # pragma: no cover - manual regeneration
    from repro.experiments import registry

    for output in registry.run_experiment("fleet_coverage").outputs:
        print(output.report())
