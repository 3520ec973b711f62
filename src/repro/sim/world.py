"""The end-to-end world: environment + reader + drone-relay + tags.

``World.scan`` flies the drone along a trajectory and produces, for
every tag the relay reached, the series of through-relay channel
measurements that the localization pipeline consumes — gated by the
same physics the paper's system obeys: relay stability (Eq. 3), tag
power-up, reader decode SNR, and (optionally) Gen2 anti-collision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.channel.environment import Environment
from repro.channel.pathloss import free_space_path_loss_db
from repro.constants import (
    RELAY_FREQUENCY_SHIFT_HZ,
    UHF_CENTER_FREQUENCY,
)
from repro.errors import ConfigurationError
from repro.hardware.tag import PassiveTag
from repro.localization.measurement import (
    MeasurementModel,
    ThroughRelayMeasurement,
)
from repro.localization.pipeline import Localizer, LocalizationResult
from repro.mobility.drone import Drone
from repro.mobility.groundtruth import OptiTrack
from repro.mobility.trajectory import Trajectory
from repro.sim.events import inventory_at_pose
from repro.sim.readrate import RangeConfig, RangeModel


@dataclass(frozen=True)
class WorldConfig:
    """Physics and hardware parameters of a scan."""

    frequency_hz: float = UHF_CENTER_FREQUENCY
    frequency_shift_hz: float = RELAY_FREQUENCY_SHIFT_HZ
    sample_spacing_m: float = 0.1
    base_estimate_snr_db: float = 35.0
    """Channel-estimate SNR when the reader-relay leg is 5 m."""
    snr_reference_distance_m: float = 5.0
    use_gen2_mac: bool = True
    range_config: RangeConfig = field(default_factory=RangeConfig)

    def __post_init__(self) -> None:
        if self.sample_spacing_m <= 0:
            raise ConfigurationError("sample spacing must be positive")
        if self.snr_reference_distance_m <= 0:
            raise ConfigurationError("SNR reference distance must be positive")


@dataclass
class TagObservation:
    """Everything a scan learned about one tag."""

    epc: int
    true_position: np.ndarray
    measurements: List[ThroughRelayMeasurement] = field(default_factory=list)

    @property
    def n_reads(self) -> int:
        """Number of successful reads collected for this tag."""
        return len(self.measurements)


class World:
    """A simulated deployment.

    Parameters
    ----------
    environment:
        Walls and reflectors.
    reader_position:
        The stationary reader.
    tags:
        The tag population (positions inside the environment).
    rng:
        Randomness for fading, MAC slots, jitter, and estimate noise.
    """

    def __init__(
        self,
        environment: Environment,
        reader_position,
        tags: Sequence[PassiveTag],
        rng: np.random.Generator,
        config: WorldConfig = WorldConfig(),
        drone: Optional[Drone] = None,
        groundtruth: Optional[OptiTrack] = None,
    ) -> None:
        self.environment = environment
        self.reader_position = np.asarray(reader_position, dtype=float)
        self.tags = list(tags)
        epcs = [t.epc_int for t in self.tags]
        if len(set(epcs)) != len(epcs):
            raise ConfigurationError("tag EPCs must be unique")
        self.rng = rng
        self.config = config
        self.drone = drone or Drone()
        self.groundtruth = groundtruth or OptiTrack()
        self.range_model = RangeModel(config.range_config)
        self.measurement_model = MeasurementModel(
            environment=environment,
            reader_position=reader_position,
            reader_frequency_hz=config.frequency_hz,
            frequency_shift_hz=config.frequency_shift_hz,
        )

    # -- per-pose physics gates ---------------------------------------------------

    def relay_operational(self, drone_position) -> bool:
        """Stability (Eq. 3) plus reference-RFID reachability."""
        d = float(np.linalg.norm(drone_position - self.reader_position))
        if d <= 0.0:
            return False
        wall = self.environment.obstruction_loss_db(
            self.reader_position, drone_position
        )
        loss = free_space_path_loss_db(d, self.config.frequency_hz) + wall
        return loss <= self.config.range_config.relay_isolation_db

    def tag_powered(self, drone_position, tag: PassiveTag) -> bool:
        """Does the relay's downlink light this tag at this pose?"""
        d = float(np.linalg.norm(np.asarray(tag.position) - drone_position))
        if d <= 0.0:
            return True
        reader_d = float(np.linalg.norm(drone_position - self.reader_position))
        return self.range_model.relay_read(
            max(reader_d, 0.1),
            rng=self.rng,
            line_of_sight=self.environment.has_line_of_sight(
                self.reader_position, drone_position
            ),
            relay_tag_distance_m=d,
        )

    def estimate_snr_db(self, drone_position, tag: PassiveTag) -> float:
        """Channel-estimate SNR heuristic: falls with both half-links."""
        c = self.config
        reader_d = max(
            float(np.linalg.norm(drone_position - self.reader_position)), 0.5
        )
        tag_d = max(
            float(np.linalg.norm(np.asarray(tag.position) - drone_position)), 0.3
        )
        snr = c.base_estimate_snr_db
        snr -= 40.0 * np.log10(reader_d / c.snr_reference_distance_m)
        snr -= 20.0 * np.log10(max(tag_d / 2.0, 1.0))
        snr -= self.environment.obstruction_loss_db(
            self.reader_position, drone_position
        )
        return float(snr)

    # -- scanning -----------------------------------------------------------------

    def scan(self, trajectory: Trajectory) -> Dict[int, TagObservation]:
        """Fly the path and collect through-relay measurements per tag."""
        flown = self.drone.fly(trajectory, self.config.sample_spacing_m, self.rng)
        observed = self.groundtruth.observe_trajectory(flown, self.rng)
        observations = {
            t.epc_int: TagObservation(t.epc_int, np.asarray(t.position, float))
            for t in self.tags
        }
        for true_pose, seen_pose in zip(flown, observed):
            if not self.relay_operational(true_pose.position):
                continue
            powered = {
                t.epc_int: self.tag_powered(true_pose.position, t)
                for t in self.tags
            }
            if self.config.use_gen2_mac:
                read_epcs = inventory_at_pose(
                    self.tags, lambda t: powered[t.epc_int], self.rng
                )
            else:
                read_epcs = {epc for epc, on in powered.items() if on}
            for tag in self.tags:
                if tag.epc_int not in read_epcs:
                    continue
                snr = self.estimate_snr_db(true_pose.position, tag)
                measurement = self.measurement_model.measure(
                    true_pose.position,
                    tag.position,
                    rng=self.rng,
                    snr_db=snr,
                    time=true_pose.time,
                )
                # The localizer only knows the OptiTrack pose.
                observations[tag.epc_int].measurements.append(
                    ThroughRelayMeasurement(
                        position=seen_pose.position,
                        h_target=measurement.h_target,
                        h_reference=measurement.h_reference,
                        snr_db=measurement.snr_db,
                        time=measurement.time,
                    )
                )
        return observations

    def localize(
        self,
        observation: TagObservation,
        localizer: Optional[Localizer] = None,
        **locate_kwargs,
    ) -> LocalizationResult:
        """Localize one scanned tag with RFly's pipeline."""
        localizer = localizer or Localizer(frequency_hz=self.config.frequency_hz)
        return localizer.locate(observation.measurements, **locate_kwargs)
