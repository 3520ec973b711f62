"""Simulated indoor environments.

An :class:`Environment` owns the wall set and answers channel queries
between arbitrary points. The evaluation worlds (line of sight, behind
walls, steel-shelved aisles) are built from scenario floorplans
(:func:`repro.scenarios.compiler.build_environment`); the factories
here are open space and the paper's two-floor building.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro import faults
from repro.channel.geometry import Wall, as_point, segments_cross
from repro.channel.multipath import Ray, WallSet, one_way_channel


@dataclass(frozen=True)
class Material:
    """Radio properties of a wall material (one crossing / one bounce)."""

    transmission_loss_db: float
    reflectivity: float
    name: str = ""


# Representative UHF materials; values follow common indoor measurement
# surveys (drywall passes easily, concrete is lossy, steel is a mirror).
DRYWALL = Material(3.0, 0.2, "drywall")
CONCRETE = Material(12.0, 0.4, "concrete")
BRICK = Material(8.0, 0.35, "brick")
STEEL = Material(35.0, 0.85, "steel")
GLASS = Material(2.0, 0.15, "glass")


class Environment:
    """A set of walls plus channel-query helpers.

    ``walls`` may be edited in place; the tracer's per-wall constants are
    rebuilt on the next query after any change to it.
    """

    def __init__(self, walls: Sequence[Wall] = (), max_reflections: int = 1) -> None:
        self.walls: List[Wall] = list(walls)
        self.max_reflections = int(max_reflections)
        self._wall_set = WallSet(self.walls)

    def add_wall(
        self,
        start: Tuple[float, float],
        end: Tuple[float, float],
        material: Material = DRYWALL,
        name: str = "",
    ) -> Wall:
        """Append a wall of a given material; returns the Wall object."""
        wall = Wall(
            start=start,
            end=end,
            transmission_loss_db=material.transmission_loss_db,
            reflectivity=material.reflectivity,
            name=name or material.name,
        )
        self.walls.append(wall)
        return wall

    def rays_between(self, a, b) -> List[Ray]:
        """All propagation paths between two points."""
        if not self._wall_set.holds(self.walls):
            self._wall_set = WallSet(self.walls)
        return self._wall_set.trace(a, b, max_reflections=self.max_reflections)

    def channel(self, a, b, frequency_hz: float) -> complex:
        """One-way complex channel between two points.

        An injected ``channel.link`` drop (interference burst, LoS
        blockage) returns a dead channel — downstream this surfaces as
        an unpowered tag or an undecodable reference, never as a
        silently biased estimate.
        """
        if faults.dropped("channel.link"):
            return 0j
        return one_way_channel(self.rays_between(a, b), frequency_hz)

    def has_line_of_sight(self, a, b) -> bool:
        """True when no wall properly crosses the direct segment."""
        a, b = as_point(a), as_point(b)
        return not any(
            segments_cross(a, b, w.p1, w.p2) for w in self.walls
        )

    def obstruction_loss_db(self, a, b) -> float:
        """Total transmission loss of walls crossed by the direct path."""
        a, b = as_point(a), as_point(b)
        return float(
            sum(
                w.transmission_loss_db
                for w in self.walls
                if segments_cross(a, b, w.p1, w.p2)
            )
        )

    # -- canned scenarios -------------------------------------------------------

    @staticmethod
    def free_space() -> "Environment":
        """No walls at all: pure line-of-sight."""
        return Environment([])

    @staticmethod
    def two_floor_building(
        width_m: float = 30.0, depth_m: float = 40.0
    ) -> "Environment":
        """A 30 x 40 m floor with interior walls (the paper's test building)."""
        env = Environment(max_reflections=1)
        env.add_wall((0, 0), (width_m, 0), CONCRETE, "exterior-south")
        env.add_wall((0, depth_m), (width_m, depth_m), CONCRETE, "exterior-north")
        env.add_wall((0, 0), (0, depth_m), CONCRETE, "exterior-west")
        env.add_wall((width_m, 0), (width_m, depth_m), CONCRETE, "exterior-east")
        # Interior partitions with door gaps.
        env.add_wall((0, depth_m / 2), (width_m * 0.45, depth_m / 2), DRYWALL, "mid-w")
        env.add_wall(
            (width_m * 0.55, depth_m / 2), (width_m, depth_m / 2), DRYWALL, "mid-e"
        )
        env.add_wall(
            (width_m / 2, 0), (width_m / 2, depth_m * 0.4), DRYWALL, "spine-s"
        )
        return env
