"""Fleet lowering: band validation, trajectory inheritance, scaling.

``validate_fleet`` must enforce the daisy-chain/FCC band constraints
per relay; ``realize_fleet`` must keep relay ``i``'s flight a function
of ``(seed, i)`` alone; ``scale_fleet`` must synthesize the coverage
sweep's segment geometry exactly (half-overlap, reuse-2, and — at
``N=1`` — the literal pre-fleet scenario shape).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.plan import FleetPlan, realize_fleet, scale_fleet, validate_fleet
from repro.scenarios import registry
from repro.scenarios.compiler import realize_world
from repro.scenarios.spec import Scenario


def base_scenario() -> Scenario:
    return registry.get("conveyor_flow_through")


def fleet_scenario(n: int) -> Scenario:
    return scale_fleet(base_scenario(), n)


class TestValidateFleet:
    def test_scenario_without_fleet_rejected(self):
        with pytest.raises(ConfigurationError, match="declares no fleet"):
            validate_fleet(base_scenario())

    def test_carrier_outside_scenario_band_rejected(self):
        spec = Scenario.from_dict(
            {
                **base_scenario().to_dict(),
                "fleet": {
                    # 30 MHz shift: inside nothing the scenario declared.
                    "relays": [{"name": "hot", "shift_hz": 30e6}],
                },
            }
        )
        with pytest.raises(ConfigurationError, match="scenario band"):
            validate_fleet(spec)

    def test_default_fleet_validates(self):
        fleet = validate_fleet(fleet_scenario(1))
        assert fleet.relay_names() == ("relay-00",)

    def test_reuse2_fleet_validates(self):
        fleet = validate_fleet(fleet_scenario(4))
        assert len(fleet.relays) == 4


class TestRealizeFleet:
    def _plan(self, n: int, seed: int = 0) -> FleetPlan:
        spec = fleet_scenario(n)
        rng = np.random.default_rng(seed)
        world = realize_world(spec, rng)
        return realize_fleet(spec, world, seed)

    def test_single_relay_inherits_world_trajectory(self):
        spec = fleet_scenario(1)
        rng = np.random.default_rng(0)
        world = realize_world(spec, rng)
        plan = realize_fleet(spec, world, 0)
        # The identical object, not a re-realization: that identity is
        # what makes the N=1 pose stream the world's own flight.
        assert plan.relays[0].trajectory is world.trajectory

    def test_only_declared_fleets_are_band_checked(self):
        # A 30 MHz relay shift lands outside the declared band.
        base = base_scenario()
        plain = replace(base, radio=replace(base.radio, relay_shift_hz=30e6))
        world = realize_world(plain, np.random.default_rng(0))
        plan = realize_fleet(plain, world, 0)
        assert plan.names() == ("relay-00",)
        assert plan.relays[0].trajectory is world.trajectory
        assert plan.relays[0].shift_hz == 30e6
        declared = scale_fleet(plain, 1)
        with pytest.raises(ConfigurationError, match="scenario band"):
            realize_fleet(declared, world, 0)

    def test_segments_cover_the_aisle_with_overlap(self):
        spec = base_scenario()
        plan = self._plan(4)
        base = spec.trajectory
        starts = [r.trajectory.waypoints[0] for r in plan.relays]
        ends = [r.trajectory.waypoints[-1] for r in plan.relays]
        np.testing.assert_allclose(starts[0], (base.x0_m, base.y0_m))
        np.testing.assert_allclose(ends[-1], (base.x1_m, base.y1_m))
        # Each interior boundary is swept by both neighbors: segment i
        # ends strictly after segment i+1 begins.
        for left_end, right_start in zip(ends[1:], starts[1:]):
            assert left_end[0] > right_start[0]

    def test_shifts_alternate_reuse2(self):
        plan = self._plan(4)
        shifts = [relay.shift_hz for relay in plan.relays]
        assert shifts[0] == shifts[2]
        assert shifts[1] == shifts[3]
        assert shifts[0] != shifts[1]
        groups = plan.co_channel_groups()
        assert groups == [[0, 2], [1, 3]]

    def _random_fleet(self, n_relays: int) -> Scenario:
        # Relay 1 flies a *random* segment; the rest inherit the world
        # trajectory. Its realized flight must be a function of
        # (seed, index) only — never of how many siblings fly.
        wander = {
            "kind": "random_segment",
            "x_min_m": 0.5,
            "x_max_m": 2.0,
            "y_min_m": 0.5,
            "y_max_m": 2.0,
            "length_min_m": 1.0,
            "length_max_m": 2.0,
        }
        relays = [{"name": f"r{i}"} for i in range(n_relays)]
        relays[1] = {"name": "r1", "trajectory": wander}
        return Scenario.from_dict(
            {**base_scenario().to_dict(), "fleet": {"relays": relays}}
        )

    def test_relay_flight_depends_only_on_seed_and_index(self):
        flights = []
        for n_relays in (2, 4):
            spec = self._random_fleet(n_relays)
            world = realize_world(spec, np.random.default_rng(0))
            plan = realize_fleet(spec, world, seed=7)
            flights.append(plan.relays[1].trajectory)
        np.testing.assert_array_equal(
            flights[0].waypoints[0], flights[1].waypoints[0]
        )
        np.testing.assert_array_equal(
            flights[0].waypoints[-1], flights[1].waypoints[-1]
        )


class TestScaleFleet:
    def test_fleet_size_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            scale_fleet(base_scenario(), 0)

    def test_non_line_base_rejected(self):
        spec = registry.get("paper_warehouse_two_floor")
        if spec.trajectory.kind == "line":
            pytest.skip("warehouse base became a line")
        with pytest.raises(ConfigurationError, match="line trajectory"):
            scale_fleet(spec, 2)

    def test_n1_declares_no_trajectory(self):
        spec = fleet_scenario(1)
        assert spec.fleet is not None
        assert len(spec.fleet.relays) == 1
        assert spec.fleet.relays[0].trajectory is None
        assert spec.fleet.relays[0].shift_hz is None

    def test_scaled_scenario_round_trips_json(self):
        spec = fleet_scenario(8)
        assert Scenario.from_json(spec.to_json()) == spec
