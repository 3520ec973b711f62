"""Lower a :class:`~repro.scenarios.spec.Scenario` to concrete objects.

The compiler owns the spec -> world mapping: floorplans become
:class:`~repro.channel.environment.Environment` wall sets, trajectory
specs become :class:`~repro.mobility.trajectory.LineTrajectory`
passes, tag layouts become drawn positions, and a whole scenario
becomes either a replayable :class:`~repro.serve.traffic.TrafficWorkload`
(:func:`generate_workload`) or seeded :mod:`repro.runtime` sweep tasks
(:func:`compile_scenario`).

Randomized spec kinds (``random_segment`` trajectories, ``random_ring``
readers, ``uniform_box`` / ``side_offset`` tag layouts, clutter) all
draw from one ``numpy`` generator in a **fixed order** — trajectory,
then clutter, then reader, then tags — so the realized world is a pure
function of ``(spec, seed)``. That order is load-bearing: the serve and
figure goldens pin it byte for byte, so never reorder the draws.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import faults
from repro.channel.environment import (
    BRICK,
    CONCRETE,
    DRYWALL,
    GLASS,
    STEEL,
    Environment,
    Material,
)
from repro.errors import ConfigurationError
from repro.hardware.tag import PassiveTag
from repro.localization.grid import Grid2D
from repro.localization.measurement import MeasurementModel
from repro.mobility.groundtruth import OptiTrack
from repro.mobility.trajectory import LineTrajectory, TrajectorySample
from repro.obs import tracing
from repro.runtime import SweepTask
from repro.scenarios import registry
from repro.scenarios.spec import (
    FloorplanSpec,
    GridSpec,
    Scenario,
    TagLayoutSpec,
    TrajectorySpec,
)
from repro.serve.config import ServeConfig
from repro.serve.traffic import TrafficWorkload, UpdateEvent, run_workload
from repro.sim import events

#: Spec material names -> channel material singletons.
MATERIALS: Mapping[str, Material] = {
    "drywall": DRYWALL,
    "concrete": CONCRETE,
    "brick": BRICK,
    "steel": STEEL,
    "glass": GLASS,
}


class RealizedWorld:
    """One concrete draw of a scenario's random geometry."""

    def __init__(
        self,
        environment: Optional[Environment],
        trajectory: LineTrajectory,
        start: np.ndarray,
        direction: np.ndarray,
        length_m: float,
        reader_position_m: np.ndarray,
        tag_positions_m: List[np.ndarray],
    ) -> None:
        self.environment = environment
        self.trajectory = trajectory
        self.start = start
        self.direction = direction
        self.length_m = length_m
        self.reader_position_m = reader_position_m
        self.tag_positions_m = tag_positions_m

    @property
    def midpoint_m(self) -> np.ndarray:
        """Center of the flight segment (the SNR law's anchor point)."""
        return self.start + self.direction * (self.length_m / 2.0)


def build_environment(floorplan: FloorplanSpec) -> Optional[Environment]:
    """Walls -> Environment; ``None`` for free space (no walls/clutter).

    Clutter is *not* added here — it needs the realized trajectory and
    the task rng, so :func:`realize_world` appends it.
    """
    if not floorplan.walls and floorplan.clutter is None:
        return None
    env = Environment(max_reflections=floorplan.max_reflections)
    for wall in floorplan.walls:
        env.add_wall(
            (wall.x0_m, wall.y0_m),
            (wall.x1_m, wall.y1_m),
            MATERIALS[wall.material],
            wall.name,
        )
    return env


def build_trajectory(
    spec: TrajectorySpec, rng: Optional[np.random.Generator] = None
) -> Tuple[LineTrajectory, np.ndarray, np.ndarray, float]:
    """Lower a trajectory spec; returns (trajectory, start, direction,
    length). ``random_segment`` draws start, heading, length — in that
    order — from ``rng``."""
    if spec.kind == "line":
        start = np.array([spec.x0_m, spec.y0_m])
        end = np.array([spec.x1_m, spec.y1_m])
        length = float(np.linalg.norm(end - start))
        direction = (end - start) / length
        trajectory = LineTrajectory(start, end, speed_mps=spec.speed_mps)
        return trajectory, start, direction, length
    if rng is None:
        raise ConfigurationError(
            "random_segment trajectories need an rng to realize"
        )
    start = np.array(
        [
            rng.uniform(spec.x_min_m, spec.x_max_m),
            rng.uniform(spec.y_min_m, spec.y_max_m),
        ]
    )
    heading = rng.uniform(0.0, 2.0 * np.pi)
    direction = np.array([np.cos(heading), np.sin(heading)])
    length = float(rng.uniform(spec.length_min_m, spec.length_max_m))
    trajectory = LineTrajectory(
        start, start + direction * length, speed_mps=spec.speed_mps
    )
    return trajectory, start, direction, length


def _add_clutter(
    env: Environment,
    floorplan: FloorplanSpec,
    start: np.ndarray,
    rng: np.random.Generator,
) -> None:
    clutter = floorplan.clutter
    if clutter is None:
        return
    materials = tuple(MATERIALS[name] for name in clutter.materials)
    for _ in range(clutter.n_obstacles):
        center = start + rng.normal(0.0, clutter.scatter_std_m, 2)
        angle = rng.uniform(0.0, np.pi)
        half = np.array([np.cos(angle), np.sin(angle)]) * rng.uniform(
            clutter.half_extent_min_m, clutter.half_extent_max_m
        )
        env.add_wall(
            tuple(center - half),
            tuple(center + half),
            materials[int(rng.integers(0, len(materials)))],
            "clutter",
        )


def _place_reader(
    scenario: Scenario,
    start: np.ndarray,
    direction: np.ndarray,
    length_m: float,
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    reader = scenario.reader
    if reader.kind == "fixed":
        return np.array([reader.x_m, reader.y_m])
    if rng is None:
        raise ConfigurationError("random_ring readers need an rng")
    reader_angle = rng.uniform(0.0, 2.0 * np.pi)
    reader_distance = rng.uniform(
        reader.distance_min_m, reader.distance_max_m
    )
    position = start + direction * (
        length_m / 2.0
    ) + reader_distance * np.array(
        [np.cos(reader_angle), np.sin(reader_angle)]
    )
    return np.clip(
        position,
        [reader.clip_x_min_m, reader.clip_y_min_m],
        [reader.clip_x_max_m, reader.clip_y_max_m],
    )


def place_tags(
    layout: TagLayoutSpec,
    rng: Optional[np.random.Generator],
    start: Optional[np.ndarray] = None,
    direction: Optional[np.ndarray] = None,
    length_m: float = 0.0,
    n_tags: Optional[int] = None,
) -> List[np.ndarray]:
    """Lower a tag layout to drawn positions.

    Draw order per tag — ``uniform_box``: x then y; ``side_offset``:
    side, along-fraction, offset. Goldens pin this order.
    """
    count = layout.n_tags if n_tags is None else int(n_tags)
    if count < 1:
        raise ConfigurationError("need at least one tag")
    if layout.kind == "fixed":
        if count != len(layout.positions_m):
            raise ConfigurationError(
                f"fixed layout has {len(layout.positions_m)} position(s); "
                f"cannot place {count} tags"
            )
        return [np.array(position) for position in layout.positions_m]
    if rng is None:
        raise ConfigurationError(f"{layout.kind} tag layouts need an rng")
    if layout.kind == "uniform_box":
        return [
            np.array(
                [
                    rng.uniform(layout.x_min_m, layout.x_max_m),
                    rng.uniform(layout.y_min_m, layout.y_max_m),
                ]
            )
            for _ in range(count)
        ]
    if start is None or direction is None or length_m <= 0.0:
        raise ConfigurationError(
            "side_offset tag layouts need the realized flight segment"
        )
    positions = []
    for _ in range(count):
        side = 1.0 if rng.random() < 0.5 else -1.0
        normal = np.array([-direction[1], direction[0]]) * side
        along = rng.uniform(
            layout.along_fraction_min, layout.along_fraction_max
        )
        offset = rng.uniform(layout.offset_min_m, layout.offset_max_m)
        positions.append(
            start + direction * (length_m * along) + normal * offset
        )
    return positions


def realize_world(
    scenario: Scenario,
    rng: Optional[np.random.Generator],
    n_tags: Optional[int] = None,
) -> RealizedWorld:
    """Draw one concrete world: trajectory, clutter, reader, tags —
    always in that order (the determinism contract)."""
    environment = build_environment(scenario.floorplan)
    trajectory, start, direction, length_m = build_trajectory(
        scenario.trajectory, rng
    )
    if environment is not None and rng is not None:
        _add_clutter(environment, scenario.floorplan, start, rng)
    elif scenario.floorplan.clutter is not None and rng is None:
        raise ConfigurationError("clutter needs an rng to realize")
    reader_position = _place_reader(scenario, start, direction, length_m, rng)
    tag_positions = place_tags(
        scenario.tags,
        rng,
        start=start,
        direction=direction,
        length_m=length_m,
        n_tags=n_tags,
    )
    return RealizedWorld(
        environment=environment,
        trajectory=trajectory,
        start=start,
        direction=direction,
        length_m=length_m,
        reader_position_m=reader_position,
        tag_positions_m=tag_positions,
    )


def build_measurement_model(
    scenario: Scenario,
    environment: Optional[Environment],
    reader_position_m: Union[np.ndarray, Tuple[float, float]],
) -> MeasurementModel:
    """The through-relay measurement model the scenario's radio implies."""
    return MeasurementModel(
        environment=environment,
        reader_position=reader_position_m,
        reader_frequency_hz=scenario.radio.center_frequency_hz,
        frequency_shift_hz=scenario.radio.relay_shift_hz,
        relay_gain_db=scenario.radio.relay_gain_db,
    )


def projected_distance_snr_db(
    distance_m: float, reference_snr_db: float = 46.0
) -> float:
    """Channel-estimate SNR vs (projected) reader-relay distance.

    Both the relayed query and the relayed reply cross the reader-relay
    leg, so the estimate SNR falls 40 dB per distance decade. The
    reference anchors SNR ~6 dB at 50 m, reproducing the paper's
    "beyond 50 m the SNR drops below 3 dB" observation (§7.3b) once
    fading subtracts its share.
    """
    if distance_m <= 0:
        raise ConfigurationError("distance must be positive")
    return reference_snr_db - 40.0 * np.log10(max(distance_m, 1.0) / 5.0)


def resolve_snr_db(scenario: Scenario, world: RealizedWorld) -> float:
    """The channel-estimate SNR the radio spec implies for a world.

    ``distance_law`` reproduces the paper's Fig. 14 law: SNR falls with
    the reader-relay distance, loses each crossed wall's transmission
    loss, and clips to the spec's band.
    """
    radio = scenario.radio
    if radio.snr_kind == "fixed":
        return radio.snr_db
    midpoint = world.midpoint_m
    reader_distance = float(
        np.linalg.norm(midpoint - world.reader_position_m)
    )
    wall_loss = 0.0
    if world.environment is not None:
        wall_loss = world.environment.obstruction_loss_db(
            world.reader_position_m, midpoint
        )
    return float(
        np.clip(
            projected_distance_snr_db(
                reader_distance, radio.reference_snr_db
            )
            - wall_loss,
            radio.snr_min_db,
            radio.snr_max_db,
        )
    )


def build_grid(
    spec: GridSpec,
    positions: Optional[np.ndarray] = None,
    resolution_m: Optional[float] = None,
    side_sign: Optional[float] = None,
) -> Grid2D:
    """Lower a grid spec; ``tag_side`` needs the flight positions.

    A ``tag_side`` grid covers the scanned side of the flight line: a
    straight line cannot tell its two sides apart (mirror ambiguity),
    and deployments scan one side of an aisle at a time, which is the
    prior this grid encodes.
    """
    resolution = spec.resolution_m if resolution_m is None else resolution_m
    if spec.kind == "fixed":
        return Grid2D(
            spec.x_min_m, spec.x_max_m, spec.y_min_m, spec.y_max_m, resolution
        )
    if positions is None:
        raise ConfigurationError(
            "tag_side grids need the realized flight positions"
        )
    side = spec.side_sign if side_sign is None else side_sign
    margin = spec.margin_m
    y0 = float(np.mean(positions[:, 1]))
    if side >= 0:
        y_min, y_max = y0 + 0.2, y0 + margin
    else:
        y_min, y_max = y0 - margin, y0 - 0.2
    return Grid2D(
        x_min=float(positions[:, 0].min() - margin / 2),
        x_max=float(positions[:, 0].max() + margin / 2),
        y_min=y_min,
        y_max=y_max,
        resolution=resolution,
    )


def generate_workload(
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
    """Lower a scenario to a replayable Gen2 read stream.

    Every ``None`` knob resolves from the spec; explicit arguments win
    (the sweep axes of the serve experiments). All randomness — world
    realization, channel noise, MAC slot draws — comes from ``seed``,
    so the event stream is a pure function of the arguments.
    """
    spec = registry.resolve(scenario)
    if spec.fleet is not None:
        # Fleet scenarios lower through the multi-relay generator; a
        # one-relay fleet reproduces this function's stream bit for bit.
        # Imported here: repro.fleet.plan imports this module.
        from repro.fleet.workload import generate_fleet_workload

        return generate_fleet_workload(
            spec,
            n_tags=n_tags,
            seed=seed,
            load=load,
            pose_spacing_m=pose_spacing_m,
            snr_db=snr_db,
            grid_resolution=grid_resolution,
            use_gen2_mac=use_gen2_mac,
            powering_range_m=powering_range_m,
            tracker=tracker,
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

    rng = np.random.default_rng(seed)
    world = realize_world(spec, rng, n_tags=n_tags)
    model = build_measurement_model(
        spec, world.environment, world.reader_position_m
    )
    samples: Sequence[TrajectorySample] = world.trajectory.sample_every(
        spacing
    )
    if tracker is not None:
        samples = tracker.observe_trajectory(samples)
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
        positions=np.stack([s.position for s in samples]),
        resolution_m=grid_resolution,
    )
    stream: List[UpdateEvent] = []
    with tracing.span(
        "serve.traffic", n_tags=len(tags), poses=len(samples)
    ):
        for sample in samples:
            powered = {
                tag.epc_int: (
                    float(
                        np.linalg.norm(
                            np.asarray(tag.position) - sample.position
                        )
                    )
                    <= powering
                )
                for tag in tags
            }
            if mac:
                # Looked up on the module at call time, so a wrapper
                # installed on repro.sim.events sees every inventory.
                read_epcs = events.inventory_at_pose(
                    tags, lambda t: powered[t.epc_int], rng
                )
            else:
                read_epcs = {epc for epc, on in powered.items() if on}
            for tag in tags:
                if tag.epc_int not in read_epcs:
                    continue
                measurement = model.measure(
                    sample.position,
                    tag.position,
                    rng=rng,
                    snr_db=snr,
                    time=sample.time,
                )
                stream.append(
                    UpdateEvent(
                        time_s=sample.time / resolved_load,
                        session_id=session_ids[tag.epc_int],
                        measurement=measurement,
                    )
                )
    stream.sort(key=lambda e: (e.time_s, e.session_id))
    return TrafficWorkload(
        events=tuple(stream),
        grids={sid: grid for sid in session_ids.values()},
        tag_positions={
            session_ids[tag.epc_int]: np.asarray(tag.position, dtype=float)
            for tag in tags
        },
        duration_s=samples[-1].time / resolved_load,
    )


def run_scenario(
    scenario: Union[str, Scenario], seed: int = 0
) -> Dict[str, Any]:
    """Realize, stream, and serve one scenario end to end.

    The scenario's fault plan (when present) is engaged around both the
    traffic generation and the replay, exactly as the resilience
    experiment does, and the summary row reports service-level numbers.
    """
    spec = registry.resolve(scenario)
    plan = spec.fault_plan if spec.fault_plan is not None else faults.FaultPlan()
    with faults.engaged(plan, seed=seed):
        workload = generate_workload(spec, seed=seed)
        config = ServeConfig(
            frequency_hz=spec.radio.center_frequency_hz,
            latency_slo_s=spec.traffic.latency_slo_s,
        )
        report = run_workload(workload, config)
    errors = np.asarray(sorted(report.errors_m.values()), dtype=float)
    return {
        "scenario": spec.name,
        "seed": int(seed),
        "sessions": len(workload.grids),
        "offered": int(report.offered),
        "applied": int(report.service.updates_applied),
        "shed_fraction": report.shed_fraction,
        "degraded_fraction": report.degraded_fraction,
        "p99_latency_s": report.service.p99_latency_s,
        "mean_error_m": float(errors.mean()) if errors.size else float("nan"),
        "localized": int(errors.size),
    }


def _scenario_replicate(
    scenario_json: str, replicate: int, seed: int
) -> Dict[str, Any]:
    """One seeded end-to-end replicate (sweep-task entry point)."""
    row = run_scenario(Scenario.from_json(scenario_json), seed=seed)
    row["replicate"] = int(replicate)
    return row


def compile_scenario(
    scenario: Union[str, Scenario],
    n_replicates: int = 2,
    seed: int = 0,
) -> List[SweepTask]:
    """Lower a scenario to seeded, picklable sweep tasks.

    The spec rides inside each task's parameters as its canonical JSON
    string — a scalar, so the runtime cache key and the process-pool
    pickle both see the exact world definition.
    """
    if n_replicates < 1:
        raise ConfigurationError("n_replicates must be >= 1")
    spec = registry.resolve(scenario)
    scenario_json = spec.to_json()
    return [
        SweepTask.make(
            _scenario_replicate,
            params={
                "scenario_json": scenario_json,
                "replicate": int(replicate),
            },
            seed=seed * 1_000 + replicate,
            label=f"scenario/{spec.name}/r{replicate}",
        )
        for replicate in range(n_replicates)
    ]


def reduce_smoke(
    payloads: Sequence[Dict[str, Any]], params: Mapping[str, Any]
) -> List[Dict[str, Any]]:
    """Replicate rows in task order (the generic scenario reducer)."""
    return [dict(row) for row in payloads]
