"""Fleet traffic generation: N relays, one merged Gen2 read stream.

This is the fleet counterpart of
:func:`repro.scenarios.compiler.generate_workload`, and it preserves
that function's determinism contract *exactly* in the degenerate case:
with one relay flying the scenario's own trajectory, every draw — the
world realization, tag epc generators, MAC slot draws, measurement
noise — comes from the same base generator in the same order, the
interference penalty is exactly ``0.0``, and the selection policy
returns a lone candidate without touching any rng, so the produced
event stream is bit-identical to the pre-fleet path (the equivalence
suite pins this).

For N > 1 the pose timelines of all relays merge into one globally
ordered stream (sorted by ``(time, relay index)`` — relays launch
simultaneously at t=0). At each pose instant every powered tag is
assigned exactly one serving relay by the fleet's selection policy;
only the relay taking the current pose inventories its assigned tags
(through the shared Gen2 MAC draw stream), and each resulting
measurement is taken through that relay's own frequency plan with the
co-channel interference of every other active relay folded into its
SNR. Events carry the serving relay's name, which is what drives
session handoff in :mod:`repro.serve`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.channel.interference import (
    MIN_INTERFERENCE_DISTANCE_M,
    co_channel_penalty_db,
)
from repro.channel.pathloss import free_space_path_loss_db
from repro.errors import ConfigurationError
from repro.fleet.plan import FleetPlan, RelayPlan, realize_fleet
from repro.fleet.selection import RelayCandidate, build_policy
from repro.hardware.tag import PassiveTag
from repro.localization.measurement import MeasurementModel
from repro.mobility.groundtruth import OptiTrack
from repro.mobility.trajectory import TrajectorySample
from repro.obs import tracing
from repro.scenarios import registry
from repro.scenarios.compiler import build_grid, realize_world, resolve_snr_db
from repro.scenarios.spec import Scenario
from repro.serve.traffic import TrafficWorkload, UpdateEvent
from repro.sim import events


def _relay_model(
    spec: Scenario, environment: Any, reader_position: np.ndarray,
    relay: RelayPlan,
) -> MeasurementModel:
    """The through-relay model for one fleet relay's frequency slot."""
    return MeasurementModel(
        environment=environment,
        reader_position=reader_position,
        reader_frequency_hz=spec.radio.center_frequency_hz,
        frequency_shift_hz=relay.shift_hz,
        relay_gain_db=relay.gain_db,
    )


def _link_budget_db(
    relay: RelayPlan,
    relay_position: np.ndarray,
    tag_position: np.ndarray,
    reader_position: np.ndarray,
) -> float:
    """End-to-end free-space budget: gain minus both hop losses."""
    d_reader = max(
        float(np.linalg.norm(relay_position - reader_position)),
        MIN_INTERFERENCE_DISTANCE_M,
    )
    d_tag = max(
        float(np.linalg.norm(relay_position - tag_position)),
        MIN_INTERFERENCE_DISTANCE_M,
    )
    return (
        relay.gain_db
        - free_space_path_loss_db(d_reader, relay.tag_frequency_hz)
        - free_space_path_loss_db(d_tag, relay.tag_frequency_hz)
    )


def generate_fleet_workload(
    scenario: Union[str, Scenario],
    n_tags: Optional[int] = None,
    seed: int = 0,
    load: Optional[float] = None,
    pose_spacing_m: Optional[float] = None,
    snr_db: Optional[float] = None,
    grid_resolution: Optional[float] = None,
    use_gen2_mac: Optional[bool] = None,
    powering_range_m: Optional[float] = None,
    tracker: Optional[OptiTrack] = None,
) -> TrafficWorkload:
    """Lower a fleet scenario to a replayable, relay-tagged read stream.

    Mirrors :func:`repro.scenarios.compiler.generate_workload` knob for
    knob; the scenario must declare a :class:`~repro.scenarios.spec.
    FleetSpec`. All randomness comes from ``seed``.
    """
    spec = registry.resolve(scenario)
    if spec.fleet is None:
        raise ConfigurationError(
            f"scenario {spec.name!r} declares no fleet; use "
            "repro.scenarios.generate_workload"
        )
    resolved_load = spec.traffic.load if load is None else float(load)
    if resolved_load <= 0:
        raise ConfigurationError("load factor must be positive")
    spacing = (
        spec.trajectory.spacing_m
        if pose_spacing_m is None
        else float(pose_spacing_m)
    )
    mac = spec.traffic.use_gen2_mac if use_gen2_mac is None else use_gen2_mac
    powering = (
        spec.traffic.powering_range_m
        if powering_range_m is None
        else float(powering_range_m)
    )

    # Base draw stream: world realization first, tag generators second,
    # then the per-pose MAC/noise draws — the single-relay draw order.
    rng = np.random.default_rng(seed)
    world = realize_world(spec, rng, n_tags=n_tags)
    plan: FleetPlan = realize_fleet(spec, world, seed)
    models = [
        _relay_model(
            spec, world.environment, world.reader_position_m, relay
        )
        for relay in plan.relays
    ]
    relay_samples: List[Sequence[TrajectorySample]] = []
    for relay in plan.relays:
        samples: Sequence[TrajectorySample] = (
            relay.trajectory.sample_every(spacing)
        )
        if tracker is not None:
            samples = tracker.observe_trajectory(samples)
        relay_samples.append(samples)
    snr = resolve_snr_db(spec, world) if snr_db is None else float(snr_db)
    tags = [
        PassiveTag(
            epc=index + 1,
            position=(float(position[0]), float(position[1])),
            rng=rng,
        )
        for index, position in enumerate(world.tag_positions_m)
    ]
    session_ids = {tag.epc_int: f"tag-{tag.epc_int:04d}" for tag in tags}
    grid = build_grid(
        spec.grid,
        positions=np.concatenate(
            [
                np.stack([s.position for s in samples])
                for samples in relay_samples
            ]
        ),
        resolution_m=grid_resolution,
    )
    policy = build_policy(spec.fleet, seed)
    frequencies = plan.frequencies_hz()
    gains = plan.gains_db()
    # Merge pose timelines; the sort is stable, so a single relay's
    # already-ordered samples pass through untouched.
    timeline: List[Tuple[float, int, TrajectorySample]] = sorted(
        (
            (sample.time, relay_index, sample)
            for relay_index, samples in enumerate(relay_samples)
            for sample in samples
        ),
        key=lambda entry: (entry[0], entry[1]),
    )
    stream: List[UpdateEvent] = []
    with tracing.span(
        "fleet.traffic",
        n_relays=plan.n_relays,
        n_tags=len(tags),
        poses=len(timeline),
    ):
        for time_s, relay_index, sample in timeline:
            # Every relay's position at this instant: the posing relay
            # uses its (possibly tracker-observed) sample, the others
            # their nominal plan positions.
            relay_positions = [
                sample.position
                if other == relay_index
                else plan.relays[other].position_at_time(time_s)
                for other in range(plan.n_relays)
            ]
            assigned: Dict[int, Optional[int]] = {}
            for tag in tags:
                tag_position = np.asarray(tag.position, dtype=float)
                candidates = []
                for other in range(plan.n_relays):
                    distance = float(
                        np.linalg.norm(
                            tag_position - relay_positions[other]
                        )
                    )
                    if distance > powering:
                        continue
                    candidates.append(
                        RelayCandidate(
                            index=other,
                            name=plan.relays[other].name,
                            distance_m=distance,
                            link_budget_db=_link_budget_db(
                                plan.relays[other],
                                np.asarray(
                                    relay_positions[other], dtype=float
                                ),
                                tag_position,
                                world.reader_position_m,
                            ),
                        )
                    )
                assigned[tag.epc_int] = (
                    policy.select(session_ids[tag.epc_int], candidates)
                    if candidates
                    else None
                )
            served = {
                epc: (choice == relay_index)
                for epc, choice in assigned.items()
            }
            if mac:
                # Looked up on the module at call time, so a wrapper
                # installed on repro.sim.events sees every inventory.
                read_epcs = events.inventory_at_pose(
                    tags, lambda t: served[t.epc_int], rng
                )
            else:
                read_epcs = {epc for epc, on in served.items() if on}
            for tag in tags:
                if served[tag.epc_int]:
                    policy.observe(
                        session_ids[tag.epc_int],
                        relay_index,
                        1.0 if tag.epc_int in read_epcs else 0.0,
                    )
                if tag.epc_int not in read_epcs:
                    continue
                penalty_db = co_channel_penalty_db(
                    relay_index,
                    relay_positions,
                    frequencies,
                    gains,
                    (float(tag.position[0]), float(tag.position[1])),
                    (
                        float(world.reader_position_m[0]),
                        float(world.reader_position_m[1]),
                    ),
                    plan.guard_hz,
                )
                measurement = models[relay_index].measure(
                    sample.position,
                    tag.position,
                    rng=rng,
                    snr_db=snr - penalty_db,
                    time=sample.time,
                )
                stream.append(
                    UpdateEvent(
                        time_s=sample.time / resolved_load,
                        session_id=session_ids[tag.epc_int],
                        measurement=dataclasses.replace(
                            measurement, relay=plan.relays[relay_index].name
                        ),
                    )
                )
    stream.sort(key=lambda e: (e.time_s, e.session_id))
    duration_s = max(
        samples[-1].time for samples in relay_samples
    ) / resolved_load
    return TrafficWorkload(
        events=tuple(stream),
        grids={sid: grid for sid in session_ids.values()},
        tag_positions={
            session_ids[tag.epc_int]: np.asarray(tag.position, dtype=float)
            for tag in tags
        },
        duration_s=duration_s,
    )
