"""Fleet realization: per-relay trajectories plus a frequency plan.

A :class:`~repro.scenarios.spec.FleetSpec` is declarative; this module
lowers it against a realized world into a :class:`FleetPlan` of
concrete :class:`~repro.mobility.trajectory.LineTrajectory` passes and
tag-side carrier frequencies. Validation reuses the daisy-chain rule
(:class:`repro.relay.daisy_chain.ChainPlan`: every shift must be
positive so the relay's output clears the reader's channel) and the
FCC band of :func:`repro.relay.freq_discovery.ism_channels` — every
tag-side carrier must land inside both the 902-928 MHz channelization
and the scenario's declared ``[band_low_hz, band_high_hz]``. A scenario
that declares no fleet flies the implicit fleet of one
(:func:`resolve_fleet`), which is not band-checked.

Seeding follows the runtime spawn discipline: relays with their own
(possibly random) trajectory specs realize from ``SeedSequence``
children of the task seed, one child per relay index, so relay ``i``'s
flight depends only on ``(seed, i)`` — never on how many other relays
fly or on the base world's draw stream. A relay with no explicit
trajectory inherits the *world's* realized trajectory, as the implicit
fleet's one relay does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.channel.interference import co_channel_groups
from repro.errors import ConfigurationError
from repro.mobility.trajectory import LineTrajectory
from repro.relay.daisy_chain import ChainPlan
from repro.relay.freq_discovery import ism_channels
from repro.runtime.seeding import spawn_task_seeds
from repro.scenarios.compiler import RealizedWorld, build_trajectory
from repro.scenarios.spec import (
    FleetSpec,
    RelaySpec,
    Scenario,
    TrajectorySpec,
)


@dataclass(frozen=True)
class RelayPlan:
    """One realized relay: a concrete flight plus its frequency slot."""

    name: str
    trajectory: LineTrajectory
    shift_hz: float
    gain_db: float
    tag_frequency_hz: float

    def position_at_time(self, time_s: float) -> np.ndarray:
        """Relay position at ``time_s`` (parked at the end afterwards)."""
        distance = min(
            max(float(time_s), 0.0) * self.trajectory.speed_mps,
            self.trajectory.length,
        )
        return self.trajectory.position_at(distance)


class FleetPlan:
    """Realized relays plus the co-channel gate."""

    def __init__(
        self,
        relays: Tuple[RelayPlan, ...],
        guard_hz: float,
        reader_frequency_hz: float,
    ) -> None:
        if not relays:
            raise ConfigurationError("a fleet plan needs at least one relay")
        self.relays = tuple(relays)
        self.guard_hz = float(guard_hz)
        self.reader_frequency_hz = float(reader_frequency_hz)

    @property
    def n_relays(self) -> int:
        """Fleet size."""
        return len(self.relays)

    def names(self) -> Tuple[str, ...]:
        """Relay names in fleet order."""
        return tuple(relay.name for relay in self.relays)

    def frequencies_hz(self) -> Tuple[float, ...]:
        """Tag-side carrier per relay, in fleet order."""
        return tuple(relay.tag_frequency_hz for relay in self.relays)

    def gains_db(self) -> Tuple[float, ...]:
        """Relay amplifier gain per relay, in fleet order."""
        return tuple(relay.gain_db for relay in self.relays)

    def co_channel_groups(self) -> List[List[int]]:
        """Relay indices clustered by co-channel carriers."""
        return co_channel_groups(self.frequencies_hz(), self.guard_hz)


def _resolved_shift_hz(scenario: Scenario, relay: RelaySpec) -> float:
    return (
        scenario.radio.relay_shift_hz
        if relay.shift_hz is None
        else relay.shift_hz
    )


def _resolved_gain_db(scenario: Scenario, relay: RelaySpec) -> float:
    return (
        scenario.radio.relay_gain_db
        if relay.gain_db is None
        else relay.gain_db
    )


def validate_fleet(scenario: Scenario) -> FleetSpec:
    """Check a scenario's fleet against the band constraints.

    Each relay's shift must satisfy the daisy-chain rule (positive, so
    the mirrored output clears the reader's channel — enforced by
    constructing a one-hop :class:`ChainPlan`), and its tag-side
    carrier ``center + shift`` must land inside the scenario's declared
    band *and* the FCC 902-928 MHz channelization. Returns the fleet
    spec for chaining; raises :class:`ConfigurationError` otherwise.
    """
    fleet = scenario.fleet
    if fleet is None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} declares no fleet"
        )
    radio = scenario.radio
    channels = ism_channels()
    half_step = (channels[1] - channels[0]) / 2.0
    band_floor = float(channels[0] - half_step)
    band_ceiling = float(channels[-1] + half_step)
    for name, relay in zip(fleet.relay_names(), fleet.relays):
        shift = _resolved_shift_hz(scenario, relay)
        chain = ChainPlan(
            reader_frequency_hz=radio.center_frequency_hz,
            shift_hz=shift,
            n_relays=1,
        )
        tag_frequency = chain.tag_frequency_hz
        if not radio.band_low_hz <= tag_frequency <= radio.band_high_hz:
            raise ConfigurationError(
                f"relay {name!r}: tag-side carrier "
                f"{tag_frequency / 1e6:.3f} MHz falls outside the "
                f"scenario band [{radio.band_low_hz / 1e6:.3f}, "
                f"{radio.band_high_hz / 1e6:.3f}] MHz"
            )
        if not band_floor <= tag_frequency <= band_ceiling:
            raise ConfigurationError(
                f"relay {name!r}: tag-side carrier "
                f"{tag_frequency / 1e6:.3f} MHz falls outside the FCC "
                "902-928 MHz channelization"
            )
    return fleet


def resolve_fleet(scenario: Scenario) -> FleetSpec:
    """The fleet a scenario flies.

    A declared fleet is band-checked by :func:`validate_fleet`. A
    scenario without one flies the implicit ``FleetSpec()``: one relay,
    ``relay-00``, on the world's trajectory with the radio's
    ``relay_shift_hz`` and ``relay_gain_db``. Its carrier is left
    unchecked, as it was before fleets existed.
    """
    if scenario.fleet is None:
        return FleetSpec()
    return validate_fleet(scenario)


def realize_fleet(
    scenario: Scenario, world: RealizedWorld, seed: int
) -> FleetPlan:
    """Lower the scenario's fleet against a realized world.

    Relays without an explicit trajectory fly the world's realized
    trajectory (shared, not re-realized). Relays with their own spec
    realize it from a spawned seed child — by relay index, independent
    of the base draw stream.
    """
    fleet = resolve_fleet(scenario)
    child_seeds = spawn_task_seeds(seed, len(fleet.relays))
    relays: List[RelayPlan] = []
    for index, (name, relay) in enumerate(
        zip(fleet.relay_names(), fleet.relays)
    ):
        if relay.trajectory is None:
            trajectory = world.trajectory
        else:
            trajectory = _realize_relay_trajectory(
                relay.trajectory, child_seeds[index]
            )
        shift = _resolved_shift_hz(scenario, relay)
        relays.append(
            RelayPlan(
                name=name,
                trajectory=trajectory,
                shift_hz=shift,
                gain_db=_resolved_gain_db(scenario, relay),
                tag_frequency_hz=(
                    scenario.radio.center_frequency_hz + shift
                ),
            )
        )
    return FleetPlan(
        relays=tuple(relays),
        guard_hz=fleet.guard_hz,
        reader_frequency_hz=scenario.radio.center_frequency_hz,
    )


def _realize_relay_trajectory(
    spec: TrajectorySpec, child_seed: int
) -> LineTrajectory:
    rng = (
        np.random.default_rng(child_seed)
        if spec.kind != "line"
        else None
    )
    trajectory, _, _, _ = build_trajectory(spec, rng)
    return trajectory


def scale_fleet(scenario: Scenario, fleet_size: int) -> Scenario:
    """A scenario variant flying ``fleet_size`` relays over the aisle.

    The coverage-sweep synthesizer behind the ``fleet_coverage``
    experiment. The base line splits into ``fleet_size`` equal
    segments, one relay per segment, all launching at once — the fleet
    scans the aisle in roughly ``1/N`` the wall time, at the price of a
    shorter per-tag SAR aperture (the fig13 tradeoff). Each flight
    extends half a segment past both boundaries (clamped to the line),
    so every point of the aisle is swept by two relays: a boundary tag
    hands off between neighbors and its final fix combines both
    relays' segments noncoherently
    (:func:`~repro.localization.incremental.finalize_segments`).
    Keeping every pass *on* the base line avoids the mirror ambiguity
    a laterally offset lane would reintroduce (a lane through the tag
    field puts ghost peaks back inside the grid). Shifts alternate
    between the scenario's base slot and twice it, so adjacent
    segments never share a carrier and co-channel groups form only
    between next-nearest segments — frequency reuse-2.

    With ``fleet_size=1`` the single relay declares no trajectory and
    therefore inherits the world's realized trajectory: the same flight
    as the scenario without a fleet block.
    """
    if fleet_size < 1:
        raise ConfigurationError("fleet_size must be >= 1")
    base = scenario.trajectory
    if base.kind != "line":
        raise ConfigurationError(
            "scale_fleet segments a line trajectory; scenario "
            f"{scenario.name!r} flies {base.kind!r}"
        )
    start = np.array([base.x0_m, base.y0_m])
    end = np.array([base.x1_m, base.y1_m])
    relays: List[RelaySpec]
    if fleet_size == 1:
        relays = [RelaySpec(name="relay-00")]
    else:
        base_shift = scenario.radio.relay_shift_hz
        relays = []
        for index in range(fleet_size):
            lo = max(0.0, (index - 0.5) / fleet_size)
            hi = min(1.0, (index + 1.5) / fleet_size)
            seg_start = start + (end - start) * lo
            seg_end = start + (end - start) * hi
            relays.append(
                RelaySpec(
                    name=f"relay-{index:02d}",
                    trajectory=TrajectorySpec(
                        kind="line",
                        x0_m=float(seg_start[0]),
                        y0_m=float(seg_start[1]),
                        x1_m=float(seg_end[0]),
                        y1_m=float(seg_end[1]),
                        spacing_m=base.spacing_m,
                        speed_mps=base.speed_mps,
                    ),
                    shift_hz=base_shift * (1.0 + index % 2),
                )
            )
    fleet = (
        scenario.fleet
        if scenario.fleet is not None
        else FleetSpec()
    )
    return replace(scenario, fleet=replace(fleet, relays=tuple(relays)))
