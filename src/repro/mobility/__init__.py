"""Drone/robot mobility substrate.

Trajectories supply the sampled antenna positions SAR needs; the
vehicle models add the realism that matters to localization accuracy —
payload limits, battery draw, and position jitter — and the ground-truth
observer reproduces the OptiTrack scoring of the paper's evaluation.
"""

from __future__ import annotations

from repro.mobility.trajectory import (
    LineTrajectory,
    Trajectory,
    TrajectorySample,
)
from repro.mobility.drone import Drone
from repro.mobility.robot import GroundRobot
from repro.mobility.groundtruth import OptiTrack

__all__ = [
    "Trajectory",
    "TrajectorySample",
    "LineTrajectory",
    "Drone",
    "GroundRobot",
    "OptiTrack",
]
