"""Traffic generation: N relays, one merged Gen2 read stream.

Every scenario lowers to its read stream here
(:func:`repro.scenarios.compiler.generate_workload` delegates). A
scenario without a ``fleet`` block flies the implicit fleet of one
(:func:`~repro.fleet.plan.resolve_fleet`): the paper's single relay,
named ``relay-00``. Every draw — the world realization, tag epc
generators, MAC slot draws, measurement noise — comes from one base
generator seeded by ``seed``, in that order.

The pose timelines of all relays merge into one globally ordered
stream (sorted by ``(time, relay index)`` — relays launch
simultaneously at t=0). At each pose instant every powered tag is
assigned exactly one serving relay: the only relay that powers it, or
the fleet's selection policy's pick when several do. Only the relay
taking the current pose inventories its assigned tags (through the
shared Gen2 MAC draw stream), and each resulting measurement is taken
through that relay's own frequency plan with the co-channel
interference of every other active relay folded into its SNR (exactly
``0.0`` without a co-channel interferer). Events carry the serving
relay's name, which is what drives session handoff in
:mod:`repro.serve`.
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
from repro.fleet.plan import FleetPlan, RelayPlan, realize_fleet, resolve_fleet
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


def _edited(section: Any, **changes: Any) -> Any:
    """Spec ``section`` with every non-``None`` change applied (its checks rerun)."""
    changes = {name: value for name, value in changes.items() if value is not None}
    return dataclasses.replace(section, **changes) if changes else section


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
    """Lower a scenario to a replayable, relay-tagged read stream.

    The body of :func:`repro.scenarios.compiler.generate_workload`,
    knob for knob. Each explicit knob is applied as an edit of its spec
    section, so the section's own checks refuse a bad value (a NaN
    ``load`` raises :class:`~repro.errors.ConfigurationError` naming
    ``load``); an explicit ``snr_db`` fixes the SNR everywhere. All
    randomness comes from ``seed``.
    """
    spec = registry.resolve(scenario)
    spec = dataclasses.replace(
        spec,
        trajectory=_edited(spec.trajectory, spacing_m=pose_spacing_m),
        radio=_edited(
            spec.radio,
            snr_kind=None if snr_db is None else "fixed",
            snr_db=snr_db,
        ),
        traffic=_edited(
            spec.traffic,
            load=load,
            use_gen2_mac=use_gen2_mac,
            powering_range_m=powering_range_m,
        ),
        grid=_edited(spec.grid, resolution_m=grid_resolution),
    )
    resolved_load = spec.traffic.load
    spacing = spec.trajectory.spacing_m
    mac = spec.traffic.use_gen2_mac
    powering = spec.traffic.powering_range_m

    # Base draw stream: world realization first, tag generators second,
    # then the per-pose MAC/noise draws.
    rng = np.random.default_rng(seed)
    world = realize_world(spec, rng, n_tags=n_tags)
    plan: FleetPlan = realize_fleet(spec, world, seed)
    models = [
        MeasurementModel(
            environment=world.environment,
            reader_position=world.reader_position_m,
            reader_frequency_hz=spec.radio.center_frequency_hz,
            frequency_shift_hz=relay.shift_hz,
            relay_gain_db=relay.gain_db,
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
    snr = resolve_snr_db(spec, world)
    tags = [
        PassiveTag(
            epc=index + 1,
            position=(float(position[0]), float(position[1])),
            rng=rng,
        )
        for index, position in enumerate(world.tag_positions_m)
    ]
    # Read once: ``epc_int`` rebuilds the integer from the EPC bits on
    # every access.
    epcs = [tag.epc_int for tag in tags]
    session_ids = [f"tag-{epc:04d}" for epc in epcs]
    tag_positions = [np.asarray(tag.position, dtype=float) for tag in tags]
    tag_points = [(float(x), float(y)) for x, y in tag_positions]
    reader_point = (
        float(world.reader_position_m[0]),
        float(world.reader_position_m[1]),
    )
    grid = build_grid(
        spec.grid,
        positions=np.concatenate(
            [
                np.stack([s.position for s in samples])
                for samples in relay_samples
            ]
        ),
    )
    policy = build_policy(resolve_fleet(spec), seed)
    names = plan.names()
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
            served: Dict[int, bool] = {}
            for epc, session_id, tag_position in zip(
                epcs, session_ids, tag_positions
            ):
                powering_relays: List[Tuple[int, float]] = []
                for other in range(plan.n_relays):
                    distance = float(
                        np.linalg.norm(
                            tag_position - relay_positions[other]
                        )
                    )
                    if distance <= powering:
                        powering_relays.append((other, distance))
                if len(powering_relays) < 2:
                    # No choice to make: the policy is not consulted,
                    # so exploration draws happen only on real choices.
                    served[epc] = (
                        bool(powering_relays)
                        and powering_relays[0][0] == relay_index
                    )
                    continue
                candidates = [
                    RelayCandidate(
                        index=other,
                        name=names[other],
                        distance_m=distance,
                        link_budget_db=_link_budget_db(
                            plan.relays[other],
                            np.asarray(relay_positions[other], dtype=float),
                            tag_position,
                            world.reader_position_m,
                        ),
                    )
                    for other, distance in powering_relays
                ]
                served[epc] = (
                    policy.select(session_id, candidates) == relay_index
                )
            if mac:
                # Looked up on the module at call time, so a wrapper
                # installed on repro.sim.events sees every inventory.
                read_epcs = events.inventory_at_pose(
                    tags, lambda t: served[t.epc_int], rng
                )
            else:
                read_epcs = {epc for epc, on in served.items() if on}
            for tag, epc, session_id, tag_point in zip(
                tags, epcs, session_ids, tag_points
            ):
                if served[epc]:
                    policy.observe(
                        session_id,
                        relay_index,
                        1.0 if epc in read_epcs else 0.0,
                    )
                if epc not in read_epcs:
                    continue
                penalty_db = co_channel_penalty_db(
                    relay_index,
                    relay_positions,
                    frequencies,
                    gains,
                    tag_point,
                    reader_point,
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
                        session_id=session_id,
                        measurement=dataclasses.replace(
                            measurement, relay=names[relay_index]
                        ),
                    )
                )
    stream.sort(key=lambda e: (e.time_s, e.session_id))
    duration_s = max(
        samples[-1].time for samples in relay_samples
    ) / resolved_load
    return TrafficWorkload(
        events=tuple(stream),
        grids={session_id: grid for session_id in session_ids},
        tag_positions=dict(zip(session_ids, tag_positions)),
        duration_s=duration_s,
    )
