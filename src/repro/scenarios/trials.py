"""Scenario-driven trial builders for the figure experiments.

Each builder lowers a :class:`~repro.scenarios.spec.Scenario` plus a
seed to one :class:`LocalizationScenario` — the measurement bundle a
localization trial consumes. The builders are parameterized by the
spec instead of hard-coded constants, and **RNG-draw-order exact**:
with the shipped library specs every golden table regenerates byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.dsp.units import db_to_linear
from repro.errors import ConfigurationError
from repro.hardware import PassiveTag
from repro.localization.grid import Grid2D
from repro.localization.measurement import (
    MeasurementModel,
    ThroughRelayMeasurement,
)
from repro.mobility.robot import GroundRobot
from repro.mobility.trajectory import LineTrajectory
from repro.scenarios import registry
from repro.scenarios.compiler import (
    build_grid,
    build_measurement_model,
    projected_distance_snr_db,
    realize_world,
    resolve_snr_db,
)
from repro.scenarios.spec import Scenario


@dataclass(frozen=True)
class LocalizationScenario:
    """Inputs a localization experiment needs for one trial.

    The calibration gains are dimensionless *linear* amplitude ratios
    (|G / C|), hence the ``_linear`` suffix. The RSSI gain defaults to
    the SAR gain when a trial draws no calibration mismatch.
    """

    measurements: List[ThroughRelayMeasurement]
    tag_position: np.ndarray
    search_grid: Grid2D
    trajectory_positions: np.ndarray
    calibration_gain_linear: float
    description: str = ""
    rssi_calibration_gain_linear: float = 0.0

    def __post_init__(self) -> None:
        if self.rssi_calibration_gain_linear == 0.0:
            object.__setattr__(
                self,
                "rssi_calibration_gain_linear",
                self.calibration_gain_linear,
            )


def _measure_with_jitter(
    model: MeasurementModel,
    trajectory: LineTrajectory,
    tag_position,
    rng: np.random.Generator,
    snr_db: float,
    spacing_m: float = 0.05,
    jitter_std_m: float = 0.005,
) -> Tuple[List[ThroughRelayMeasurement], np.ndarray]:
    """Sample a path with track jitter and measure at each pose."""
    robot = GroundRobot(track_jitter_std_m=jitter_std_m)
    samples = robot.drive(trajectory, spacing_m, rng)
    measurements = model.measure_along(samples, tag_position, rng, snr_db)
    positions = np.stack([s.position for s in samples])
    return measurements, positions


def _correlated_wander(
    n: int, std_m: float, rng: np.random.Generator, spacing_m: float
) -> np.ndarray:
    """Smooth along-path position-knowledge error (meter-scale ripples).

    Models the drift between the markers OptiTrack sees and the relay's
    actual antenna phase centers as the drone pitches and rolls along
    the path — a few centimeters, correlated over meters.
    """
    s = np.arange(n) * spacing_m
    out = np.zeros((n, 2))
    for _ in range(3):
        lam = rng.uniform(1.0, 4.0)
        phase = rng.uniform(0.0, 2.0 * np.pi, 2)
        amp = rng.normal(0.0, std_m / np.sqrt(3), 2)
        out[:, 0] += amp[0] * np.sin(2.0 * np.pi * s / lam + phase[0])
        out[:, 1] += amp[1] * np.sin(2.0 * np.pi * s / lam + phase[1])
    return out


def heatmap_trial(
    scenario: Union[str, Scenario], seed: int = 0
) -> LocalizationScenario:
    """One SAR heatmap trial over a fixed tag (Fig. 6a/6b worlds)."""
    spec = registry.resolve(scenario)
    rng = np.random.default_rng(seed)
    world = realize_world(spec, rng)
    model = build_measurement_model(
        spec, world.environment, world.reader_position_m
    )
    tag = world.tag_positions_m[0]
    measurements, positions = _measure_with_jitter(
        model,
        world.trajectory,
        tag,
        rng,
        snr_db=resolve_snr_db(spec, world),
        spacing_m=spec.trajectory.spacing_m,
        jitter_std_m=spec.trajectory.jitter_std_m,
    )
    grid = build_grid(spec.grid, positions=positions)
    return LocalizationScenario(
        measurements=measurements,
        tag_position=tag,
        search_grid=grid,
        trajectory_positions=positions,
        calibration_gain_linear=abs(model.relay_gain / model.reference_gain),
        description=spec.description,
    )


def warehouse_trial(
    scenario: Union[str, Scenario], seed: int
) -> LocalizationScenario:
    """One randomized end-to-end warehouse trial (the Fig. 12 world).

    Random reader placement, a random flight segment, a tag to one
    side of it, clutter near the aisle, the distance-law SNR, and the
    calibrated drone-flight realism (per-flight bias + correlated
    wander) — all resolved from the spec. The localizer searches in
    trajectory-aligned coordinates on the scanned side.
    """
    spec = registry.resolve(scenario)
    rng = np.random.default_rng(seed)
    world = realize_world(spec, rng)
    if world.environment is None:
        raise ConfigurationError(
            "warehouse trials need a floorplan (walls and/or clutter)"
        )
    tag = world.tag_positions_m[0]
    model = build_measurement_model(
        spec, world.environment, world.reader_position_m
    )
    snr = resolve_snr_db(spec, world)
    reader_distance = float(
        np.linalg.norm(world.midpoint_m - world.reader_position_m)
    )
    spacing = spec.trajectory.spacing_m
    measurements, positions = _measure_with_jitter(
        model,
        world.trajectory,
        tag,
        rng,
        snr_db=snr,
        spacing_m=spacing,
        jitter_std_m=spec.trajectory.jitter_std_m,
    )
    # The localizer sees the marker-frame positions: true antenna poses
    # plus the per-flight bias and the correlated wander.
    bias = rng.normal(0.0, spec.trajectory.bias_std_m, 2)
    known_positions = positions + bias + _correlated_wander(
        len(positions), spec.trajectory.wander_std_m, rng, spacing
    )
    # Search on the scanned side, in trajectory-aligned coordinates:
    # rotate so the path runs along +x, then build the half-plane grid.
    direction = world.direction
    rotation = np.array(
        [[direction[0], direction[1]], [-direction[1], direction[0]]]
    )
    rotated_positions = (known_positions - world.start) @ rotation.T
    rotated_tag = rotation @ (tag - world.start)
    rotated_measurements = [
        ThroughRelayMeasurement(
            position=rp,
            h_target=m.h_target,
            h_reference=m.h_reference,
            snr_db=m.snr_db,
            time=m.time,
        )
        for rp, m in zip(rotated_positions, measurements)
    ]
    grid = build_grid(
        spec.grid,
        positions=rotated_positions,
        side_sign=float(np.sign(rotated_tag[1])),
    )
    return LocalizationScenario(
        measurements=rotated_measurements,
        tag_position=rotated_tag,
        search_grid=grid,
        trajectory_positions=rotated_positions,
        calibration_gain_linear=abs(model.relay_gain / model.reference_gain),
        description=(
            f"fig12 trial seed={seed}, reader at {reader_distance:.1f} m"
        ),
    )


def aperture_trial(
    scenario: Union[str, Scenario],
    aperture_m: float,
    seed: int,
    snr_db: Union[float, None] = None,
) -> LocalizationScenario:
    """One swept-aperture microbenchmark trial (the Fig. 13 world).

    The full spec trajectory is cut to the requested aperture; the tag
    draws from the spec's layout box; the RSSI baseline's calibration
    mismatch draws at the spec's ``rssi_mismatch_std_db``.
    """
    if aperture_m <= 0:
        raise ConfigurationError("aperture must be positive")
    spec = registry.resolve(scenario)
    rng = np.random.default_rng(seed)
    world = realize_world(spec, rng)
    model = build_measurement_model(
        spec, world.environment, world.reader_position_m
    )
    full = world.trajectory
    sub = full.aperture_segment(min(aperture_m, full.length))
    tag = world.tag_positions_m[0]
    resolved_snr = (
        resolve_snr_db(spec, world) if snr_db is None else float(snr_db)
    )
    measurements, positions = _measure_with_jitter(
        model,
        sub,
        tag,
        rng,
        snr_db=resolved_snr,
        spacing_m=spec.trajectory.spacing_m,
        jitter_std_m=spec.trajectory.jitter_std_m,
    )
    grid = build_grid(spec.grid, positions=positions)
    calibration = abs(model.relay_gain / model.reference_gain)
    # Indoor propagation deviates from the free-space model the RSSI
    # baseline assumes by a few dB; the mismatch is what limits it to
    # around a meter in the paper's Fig. 13.
    rssi_calibration = calibration * float(
        db_to_linear(rng.normal(0.0, spec.radio.rssi_mismatch_std_db))
    )
    return LocalizationScenario(
        measurements=measurements,
        tag_position=tag,
        search_grid=grid,
        trajectory_positions=positions,
        calibration_gain_linear=calibration,
        description=f"aperture {aperture_m} m (Fig. 13)",
        rssi_calibration_gain_linear=rssi_calibration,
    )


def distance_trial(
    scenario: Union[str, Scenario],
    projected_distance_m: float,
    seed: int,
    aperture_m: float = 1.0,
) -> LocalizationScenario:
    """One swept-distance microbenchmark trial (the Fig. 14 world).

    The projected reader-relay distance maps to an estimate SNR via
    the spec's distance law, then reuses the aperture world at a fixed
    1 m aperture.
    """
    spec = registry.resolve(scenario)
    snr = projected_distance_snr_db(
        projected_distance_m, spec.radio.reference_snr_db
    )
    return aperture_trial(spec, aperture_m, seed=seed, snr_db=snr)


def bench_tag(
    tag_distance_m: float,
    rng: np.random.Generator,
    epc: int = 0x5EED,
) -> PassiveTag:
    """The wired-bench tag sitting ``tag_distance_m`` down the boresight.

    The Fig. 9/10 RF-bench rigs place one tag on-axis at the spec'd
    bench distance; experiments resolve it through this builder rather
    than constructing :class:`~repro.hardware.PassiveTag` inline
    (reprolint A406). Draw-order exact: the constructor consumes the
    caller's ``rng`` exactly as the inline site did.
    """
    return PassiveTag(
        epc=epc, position=(float(tag_distance_m), 0.0), rng=rng
    )
