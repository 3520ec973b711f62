"""The drone platform (Parrot Bebop 2 of paper §6.2).

The drone matters to the system in three ways: its payload ceiling is
what forces the relay (35 g) instead of a full reader (>500 g, §3); its
battery powers the relay through a DC-DC converter (<3% of capacity);
and its hover jitter perturbs the SAR antenna positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.constants import (
    DRONE_BATTERY_MAX_CURRENT_A,
    DRONE_BATTERY_VOLTAGE_V,
    DRONE_MAX_PAYLOAD_GRAMS,
    DRONE_SPEED_MPS,
    RELAY_POWER_CONSUMPTION_W,
    RELAY_WEIGHT_GRAMS,
)
from repro.errors import MobilityError, PayloadError
from repro.mobility.trajectory import Trajectory, TrajectorySample


@dataclass
class Drone:
    """An indoor drone carrying a payload along a flight plan.

    Parameters
    ----------
    payload_grams:
        Attached payload weight; must not exceed the platform limit.
    payload_power_w:
        Power the payload draws from the drone battery.
    hover_jitter_std_m:
        Standard deviation of position error around the planned path
        (indoor drones hold position to a few centimeters).
    """

    payload_grams: float = RELAY_WEIGHT_GRAMS
    payload_power_w: float = RELAY_POWER_CONSUMPTION_W
    max_payload_grams: float = DRONE_MAX_PAYLOAD_GRAMS
    battery_voltage_v: float = DRONE_BATTERY_VOLTAGE_V
    battery_max_current_a: float = DRONE_BATTERY_MAX_CURRENT_A
    speed_mps: float = DRONE_SPEED_MPS
    hover_jitter_std_m: float = 0.02

    def __post_init__(self) -> None:
        if self.payload_grams < 0 or self.payload_power_w < 0:
            raise PayloadError("payload weight and power must be >= 0")
        if self.payload_grams > self.max_payload_grams:
            raise PayloadError(
                f"payload {self.payload_grams} g exceeds the "
                f"{self.max_payload_grams} g ceiling — this is why RFly "
                "mounts a relay, not a reader (paper §3)"
            )
        if self.hover_jitter_std_m < 0:
            raise MobilityError("hover jitter must be >= 0")
        if self.payload_current_a > self.battery_max_current_a:
            raise PayloadError("payload current exceeds the battery rating")

    @property
    def payload_current_a(self) -> float:
        """Current the payload draws from the battery."""
        return self.payload_power_w / self.battery_voltage_v

    def fly(
        self,
        trajectory: Trajectory,
        sample_spacing_m: float,
        rng: Optional[np.random.Generator] = None,
    ) -> List[TrajectorySample]:
        """Traverse a path, sampling poses with hover jitter.

        Returns the *true* (jittered) poses; pair with
        :class:`~repro.mobility.groundtruth.OptiTrack` to obtain the
        observed poses the localizer consumes.
        """
        samples = trajectory.sample_every(sample_spacing_m)
        if self.hover_jitter_std_m == 0.0 or rng is None:
            return samples
        jittered = []
        for s in samples:
            noise = rng.normal(0.0, self.hover_jitter_std_m, size=2)
            jittered.append(TrajectorySample(s.position + noise, s.time))
        return jittered
