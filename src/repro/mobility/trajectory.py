"""Flight/drive trajectories and their sampling.

A trajectory is a continuous path; the relay captures tag responses at
discrete points along it (one per inventory exchange), and those points
form the synthetic antenna array of paper §5. Aperture — the path length
spanned by the used samples — is the knob Fig. 13 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import MobilityError


@dataclass(frozen=True)
class TrajectorySample:
    """One sampled pose: position (2-D) and timestamp."""

    position: np.ndarray
    time: float


class Trajectory:
    """Base class: a piecewise-linear path traversed at constant speed."""

    def __init__(self, waypoints: Sequence, speed_mps: float) -> None:
        points = [np.asarray(p, dtype=float) for p in waypoints]
        if len(points) < 2:
            raise MobilityError("a trajectory needs at least two waypoints")
        if any(p.shape != (2,) for p in points):
            raise MobilityError("waypoints must be 2-D points")
        if speed_mps <= 0:
            raise MobilityError(f"speed must be positive, got {speed_mps}")
        self.waypoints = points
        self.speed_mps = float(speed_mps)
        segment_lengths = [
            float(np.linalg.norm(b - a)) for a, b in zip(points, points[1:])
        ]
        if any(l == 0.0 for l in segment_lengths):
            raise MobilityError("degenerate (zero-length) trajectory segment")
        self._cumulative = np.concatenate([[0.0], np.cumsum(segment_lengths)])

    @property
    def length(self) -> float:
        """Total path length in meters."""
        return float(self._cumulative[-1])

    @property
    def duration(self) -> float:
        """Traversal time in seconds."""
        return self.length / self.speed_mps

    def position_at(self, distance_m: float) -> np.ndarray:
        """Position after traveling ``distance_m`` meters along the path."""
        if not 0.0 <= distance_m <= self.length + 1e-9:
            raise MobilityError(
                f"distance {distance_m} outside the path length {self.length}"
            )
        distance_m = min(distance_m, self.length)
        index = int(np.searchsorted(self._cumulative, distance_m, side="right") - 1)
        index = min(index, len(self.waypoints) - 2)
        segment_start = self._cumulative[index]
        a, b = self.waypoints[index], self.waypoints[index + 1]
        seg_len = self._cumulative[index + 1] - segment_start
        frac = (distance_m - segment_start) / seg_len
        return a + frac * (b - a)

    def sample(self, n_samples: int) -> List[TrajectorySample]:
        """``n_samples`` poses evenly spaced along the path."""
        if n_samples < 2:
            raise MobilityError("need at least two samples for an aperture")
        distances = np.linspace(0.0, self.length, n_samples)
        return [
            TrajectorySample(self.position_at(d), d / self.speed_mps)
            for d in distances
        ]

    def sample_every(self, spacing_m: float) -> List[TrajectorySample]:
        """Poses every ``spacing_m`` meters (inclusive of both ends)."""
        if spacing_m <= 0:
            raise MobilityError("sample spacing must be positive")
        n = max(2, int(np.floor(self.length / spacing_m)) + 1)
        return self.sample(n)

    def aperture_segment(self, length_m: float, center_fraction: float = 0.5) -> "Trajectory":
        """A sub-trajectory of the given aperture length (Fig. 13 knob)."""
        if not 0.0 < length_m <= self.length + 1e-9:
            raise MobilityError(
                f"aperture {length_m} m exceeds path length {self.length} m"
            )
        center = self.length * center_fraction
        start = float(np.clip(center - length_m / 2.0, 0.0, self.length - length_m))
        # Densely resample the sub-path to preserve its shape.
        distances = np.linspace(start, start + length_m, 32)
        points = [self.position_at(d) for d in distances]
        return Trajectory(points, self.speed_mps)


class LineTrajectory(Trajectory):
    """A straight flight path — the paper's standard SAR geometry."""

    def __init__(self, start, end, speed_mps: float = 0.5) -> None:
        super().__init__([start, end], speed_mps)
