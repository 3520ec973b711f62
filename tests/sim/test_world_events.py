"""Tests for the end-to-end world simulation and per-pose inventory."""

import numpy as np
import pytest

from repro.channel import Environment
from repro.errors import ConfigurationError
from repro.hardware import PassiveTag
from repro.mobility import LineTrajectory
from repro.sim import World, WorldConfig
from repro.sim.events import inventory_at_pose


def make_world(n_tags=3, reader=(-10.0, 0.0), use_mac=True, seed=0, spacing=0.25):
    rng = np.random.default_rng(seed)
    tags = [
        PassiveTag(
            epc=0x1000 + i,
            position=(0.5 + i * 0.8, 1.2),
            rng=np.random.default_rng(seed + 1 + i),
        )
        for i in range(n_tags)
    ]
    config = WorldConfig(use_gen2_mac=use_mac, sample_spacing_m=spacing)
    return World(Environment.free_space(), reader, tags, rng, config)


class TestEvents:
    def test_inventory_reads_powered_tags(self):
        rng = np.random.default_rng(0)
        tags = [
            PassiveTag(epc=i + 1, position=(i, 0), rng=np.random.default_rng(i))
            for i in range(4)
        ]
        read = inventory_at_pose(tags, powered=lambda t: True, rng=rng)
        assert read == {t.epc_int for t in tags}

    def test_unpowered_tags_silent(self):
        rng = np.random.default_rng(0)
        tags = [
            PassiveTag(epc=i + 1, position=(i, 0), rng=np.random.default_rng(i))
            for i in range(4)
        ]
        read = inventory_at_pose(tags, powered=lambda t: t.epc_int <= 2, rng=rng)
        assert read == {1, 2}

    def test_repeated_poses_keep_reading(self):
        """Flag toggling must not lose tags between poses (A/B passes)."""
        rng = np.random.default_rng(0)
        tags = [
            PassiveTag(epc=i + 1, position=(i, 0), rng=np.random.default_rng(i))
            for i in range(3)
        ]
        for _ in range(3):
            read = inventory_at_pose(tags, powered=lambda t: True, rng=rng)
            assert read == {1, 2, 3}


class TestWorld:
    def test_scan_collects_measurements(self):
        world = make_world()
        observations = world.scan(LineTrajectory((0.0, 0.0), (3.0, 0.0)))
        assert len(observations) == 3
        for obs in observations.values():
            assert obs.n_reads >= 5

    def test_scan_and_localize(self):
        world = make_world(n_tags=1, use_mac=False, spacing=0.1)
        observations = world.scan(LineTrajectory((0.0, 0.0), (3.0, 0.0)))
        obs = next(iter(observations.values()))
        from repro.localization import Grid2D

        grid = Grid2D(-1.0, 4.0, 0.2, 4.0, 0.1)
        result = world.localize(obs, search_grid=grid)
        assert result.error_to(obs.true_position) < 0.5

    def test_unreachable_tag_gets_no_reads(self):
        rng = np.random.default_rng(0)
        tags = [
            PassiveTag(epc=1, position=(1.0, 1.0), rng=np.random.default_rng(1)),
            PassiveTag(epc=2, position=(1.0, 40.0), rng=np.random.default_rng(2)),
        ]
        world = World(
            Environment.free_space(), (-10.0, 0.0), tags, rng,
            WorldConfig(sample_spacing_m=0.25),
        )
        observations = world.scan(LineTrajectory((0.0, 0.0), (3.0, 0.0)))
        assert observations[1].n_reads > 0
        assert observations[2].n_reads == 0

    def test_relay_inoperational_far_from_reader(self):
        world = make_world(reader=(-2000.0, 0.0))
        assert not world.relay_operational(np.array([0.0, 0.0]))
        observations = world.scan(LineTrajectory((0.0, 0.0), (2.0, 0.0)))
        assert all(o.n_reads == 0 for o in observations.values())

    def test_duplicate_epcs_rejected(self):
        rng = np.random.default_rng(0)
        tags = [
            PassiveTag(epc=7, position=(0, 0), rng=np.random.default_rng(1)),
            PassiveTag(epc=7, position=(1, 0), rng=np.random.default_rng(2)),
        ]
        with pytest.raises(ConfigurationError):
            World(Environment.free_space(), (-5.0, 0.0), tags, rng)

    def test_estimate_snr_falls_with_distance(self):
        world = make_world()
        tag = world.tags[0]
        near = world.estimate_snr_db(np.array([-5.0, 0.0]), tag)
        far = world.estimate_snr_db(np.array([30.0, 0.0]), tag)
        assert near > far

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            WorldConfig(sample_spacing_m=0.0)
