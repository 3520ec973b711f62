"""Tests for ray tracing, multipath channels, and environments."""

import numpy as np
import pytest

from repro.channel import (
    Environment,
    Ray,
    Wall,
    one_way_channel,
    round_trip_channel,
    trace_rays,
)
from repro.channel.environment import CONCRETE, STEEL
from repro.channel.pathloss import free_space_amplitude
from repro.constants import SPEED_OF_LIGHT, UHF_CENTER_FREQUENCY
from repro.errors import GeometryError

F = UHF_CENTER_FREQUENCY


class TestTraceRays:
    def test_free_space_gives_single_direct_ray(self):
        rays = trace_rays((0, 0), (10, 0))
        assert len(rays) == 1
        assert rays[0].bounces == 0
        assert rays[0].length == pytest.approx(10.0)
        assert rays[0].gain == pytest.approx(1.0)

    def test_wall_adds_bounce_path(self):
        wall = Wall((0, 2), (10, 2), reflectivity=0.8)
        rays = trace_rays((1, 0), (9, 0), [wall])
        assert len(rays) == 2
        bounce = rays[1]
        assert bounce.bounces == 1
        # Image method: mirror target is at (9, 4); path length is
        # |(1,0) - (9,4)| = sqrt(64+16).
        assert bounce.length == pytest.approx(np.sqrt(80.0))
        assert bounce.gain == pytest.approx(0.8)

    def test_obstructing_wall_attenuates_direct(self):
        wall = Wall((5, -5), (5, 5), transmission_loss_db=20.0, reflectivity=0.0)
        rays = trace_rays((0, 0), (10, 0), [wall])
        assert len(rays) == 1
        assert rays[0].gain == pytest.approx(10 ** (-20 / 20))

    def test_nonreflective_wall_adds_no_bounce(self):
        wall = Wall((0, 2), (10, 2), reflectivity=0.0)
        rays = trace_rays((1, 0), (9, 0), [wall])
        assert len(rays) == 1

    def test_double_bounce_between_parallel_walls(self):
        south = Wall((0, -1), (20, -1), reflectivity=0.9, name="s")
        north = Wall((0, 1), (20, 1), reflectivity=0.9, name="n")
        rays = trace_rays((1, 0), (9, 0), [south, north], max_reflections=2)
        bounces = sorted(r.bounces for r in rays)
        assert bounces == [0, 1, 1, 2, 2]
        for ray in rays:
            if ray.bounces == 2:
                assert ray.gain == pytest.approx(0.81)

    def test_bounce_longer_than_direct(self):
        """Paper §5.2's key insight: reflections travel farther."""
        env = Environment.warehouse_aisle()
        rays = env.rays_between((0.5, 0.2), (9.0, -0.7))
        direct = rays[0].length
        for ray in rays[1:]:
            assert ray.length > direct

    def test_min_gain_prunes_weak_paths(self):
        wall = Wall((0, 2), (10, 2), reflectivity=1e-8)
        rays = trace_rays((1, 0), (9, 0), [wall], min_gain=1e-6)
        assert len(rays) == 1

    def test_same_point_rejected(self):
        for a, b in (
            ((1, 1), (1, 1)),
            ((np.nan, 0), (1, 0)),
            ((np.inf, 0), (1, 0)),
            ((0, 0), (1, -np.inf)),
        ):
            with pytest.raises(GeometryError):
                trace_rays(a, b)

    def test_endpoint_on_wall_line_is_reciprocal(self):
        """An endpoint on a wall's line has no bounce off it, either way."""
        shelf = Wall((0, 0), (10, 0), transmission_loss_db=35, reflectivity=0.85)
        there = trace_rays((5, 0), (3, 2), [shelf])
        back = trace_rays((3, 2), (5, 0), [shelf])
        assert [r.description for r in there] == ["direct"]
        assert [(r.length, r.gain) for r in there] == [(r.length, r.gain) for r in back]

    def test_excessive_order_rejected(self):
        with pytest.raises(GeometryError):
            trace_rays((0, 0), (1, 0), max_reflections=3)


class TestChannels:
    def test_single_path_phase_matches_distance(self):
        d = 7.3
        rays = [Ray(length=d, gain=1.0, bounces=0)]
        h = one_way_channel(rays, F)
        expected_phase = -2 * np.pi * F * d / SPEED_OF_LIGHT
        assert np.angle(h) == pytest.approx(
            np.angle(np.exp(1j * expected_phase)), abs=1e-9
        )
        assert abs(h) == pytest.approx(free_space_amplitude(d, F))

    def test_round_trip_is_square(self):
        rays = [Ray(5.0, 1.0, 0), Ray(7.0, 0.5, 1)]
        h1 = one_way_channel(rays, F)
        assert round_trip_channel(rays, F) == pytest.approx(h1 * h1)

    def test_round_trip_single_path_doubles_phase(self):
        d = 4.0
        rays = [Ray(length=d, gain=1.0, bounces=0)]
        h = round_trip_channel(rays, F)
        expected = -2 * np.pi * F * 2 * d / SPEED_OF_LIGHT
        assert np.angle(h) == pytest.approx(np.angle(np.exp(1j * expected)), abs=1e-9)

    def test_destructive_interference_possible(self):
        """Two paths half a wavelength apart cancel (RFID blind spots)."""
        lam = SPEED_OF_LIGHT / F
        rays_constructive = [Ray(10.0, 1.0, 0), Ray(10.0 + lam, 1.0, 1)]
        rays_destructive = [Ray(10.0, 1.0, 0), Ray(10.0 + lam / 2, 1.0, 1)]
        h_c = abs(one_way_channel(rays_constructive, F))
        h_d = abs(one_way_channel(rays_destructive, F))
        assert h_d < 0.02 * h_c

    def test_invalid_frequency(self):
        for frequency in (0.0, np.nan, np.inf):
            with pytest.raises(GeometryError):
                one_way_channel([Ray(1.0, 1.0, 0)], frequency)

    def test_non_finite_ray_rejected(self):
        for length, gain in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(GeometryError):
                Ray(length, gain, 0)


class TestEnvironment:
    def test_free_space_has_los_everywhere(self):
        env = Environment.free_space()
        assert env.has_line_of_sight((0, 0), (100, 100))
        assert env.obstruction_loss_db((0, 0), (100, 100)) == 0.0

    def test_through_wall_blocks_los(self):
        env = Environment.through_wall(wall_x=5.0, material=CONCRETE)
        assert not env.has_line_of_sight((0, 0), (10, 0))
        assert env.obstruction_loss_db((0, 0), (10, 0)) == pytest.approx(
            CONCRETE.transmission_loss_db
        )

    def test_parallel_to_wall_keeps_los(self):
        env = Environment.through_wall(wall_x=5.0)
        assert env.has_line_of_sight((0, 0), (0, 10))

    def test_warehouse_aisle_is_multipath_rich(self):
        env = Environment.warehouse_aisle()
        rays = env.rays_between((1, 0), (8, 0.5))
        assert sum(1 for r in rays if r.bounces > 0) >= 2

    def test_two_floor_building_dimensions(self):
        env = Environment.two_floor_building()
        assert len(env.walls) >= 6

    def test_add_wall_uses_material(self):
        env = Environment()
        wall = env.add_wall((0, 0), (1, 0), STEEL)
        assert wall.reflectivity == STEEL.reflectivity
        assert wall.transmission_loss_db == STEEL.transmission_loss_db

    def test_invalid_corridor(self):
        with pytest.raises(GeometryError):
            Environment.corridor(length_m=-1.0)

    def test_channel_weaker_through_wall(self):
        blocked = Environment.through_wall(wall_x=5.0, material=CONCRETE)
        clear = Environment.free_space()
        h_clear = abs(clear.channel((0, 0), (10, 0), F))
        h_blocked = abs(blocked.channel((0, 0), (10, 0), F))
        assert h_blocked < h_clear
