"""Tests for the EPC-to-object catalog and scan reconciliation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.inventory_db import Item, ItemDatabase


def catalog():
    return ItemDatabase(
        [
            Item(epc=0xA1, name="pallet-jack", expected_position=(1.0, 2.0)),
            Item(epc=0xA2, name="drill-box", expected_position=(3.0, 2.0)),
            Item(epc=0xA3, name="cable-spool"),
        ]
    )


class TestCatalog:
    def test_lookup(self):
        db = catalog()
        assert db.lookup(0xA1).name == "pallet-jack"
        assert db.lookup(0xFF) is None
        assert 0xA2 in db
        assert len(db) == 3

    def test_duplicate_epc_rejected(self):
        db = catalog()
        with pytest.raises(ConfigurationError):
            db.add(Item(epc=0xA1, name="impostor"))

    def test_item_validation(self):
        with pytest.raises(ConfigurationError):
            Item(epc=-1, name="x")
        with pytest.raises(ConfigurationError):
            Item(epc=1, name="")


class TestReconcile:
    def test_full_report(self):
        db = catalog()
        report = db.reconcile(
            located={
                0xA1: np.array([1.05, 2.02]),
                0xA2: np.array([7.0, 2.0]),  # far from its shelf
                0xBB: np.array([0.0, 0.0]),  # a foreign tag
            },
            read_counts={0xA1: 12, 0xA2: 9},
        )
        assert {f.item.epc for f in report.found} == {0xA1, 0xA2}
        assert [m.epc for m in report.missing] == [0xA3]
        assert report.unexpected_epcs == [0xBB]
        assert report.found_fraction == pytest.approx(2.0 / 3.0)

    def test_displacement(self):
        db = catalog()
        report = db.reconcile({0xA1: np.array([1.0, 3.0])})
        found = report.found[0]
        assert found.displacement_m == pytest.approx(1.0)

    def test_displacement_none_without_expectation(self):
        db = catalog()
        report = db.reconcile({0xA3: np.array([5.0, 5.0])})
        assert report.found[0].displacement_m is None

    def test_misplaced_detection(self):
        db = catalog()
        report = db.reconcile(
            {0xA1: np.array([1.1, 2.0]), 0xA2: np.array([6.0, 2.0])}
        )
        misplaced = report.misplaced(threshold_m=1.0)
        assert [m.item.epc for m in misplaced] == [0xA2]
        with pytest.raises(ConfigurationError):
            report.misplaced(threshold_m=0.0)

    def test_empty_scan_all_missing(self):
        db = catalog()
        report = db.reconcile({})
        assert len(report.missing) == 3
        assert report.found_fraction == 0.0

    def test_empty_catalog(self):
        report = ItemDatabase().reconcile({0x1: np.zeros(2)})
        assert report.unexpected_epcs == [0x1]
        assert report.found_fraction == 1.0


class TestEndToEndWithWorld:
    def test_scan_localize_reconcile(self):
        """The full §3 workflow: scan, localize, look up, reconcile."""
        from repro.channel import Environment
        from repro.hardware import PassiveTag
        from repro.localization import Grid2D
        from repro.mobility import LineTrajectory
        from repro.sim import World, WorldConfig

        rng = np.random.default_rng(0)
        positions = {0xB1: (0.8, 1.4), 0xB2: (2.2, 1.6)}
        tags = [
            PassiveTag(epc=epc, position=pos, rng=np.random.default_rng(epc))
            for epc, pos in positions.items()
        ]
        db = ItemDatabase(
            [
                Item(epc=0xB1, name="crate-A", expected_position=(0.8, 1.4)),
                Item(epc=0xB2, name="crate-B", expected_position=(2.2, 1.6)),
                Item(epc=0xB3, name="crate-C", expected_position=(9.0, 1.0)),
            ]
        )
        world = World(
            Environment.free_space(), (-10.0, 0.0), tags, rng,
            WorldConfig(sample_spacing_m=0.1, use_gen2_mac=False),
        )
        observations = world.scan(LineTrajectory((0.0, 0.0), (3.0, 0.0)))
        grid = Grid2D(-1.0, 4.0, 0.2, 4.0, 0.1)
        located = {
            epc: world.localize(obs, search_grid=grid).position
            for epc, obs in observations.items()
            if obs.n_reads >= 5
        }
        counts = {epc: obs.n_reads for epc, obs in observations.items()}
        report = db.reconcile(located, counts)
        assert {f.item.name for f in report.found} == {"crate-A", "crate-B"}
        assert [m.name for m in report.missing] == ["crate-C"]
        assert all(f.displacement_m < 0.5 for f in report.found)
        assert not report.misplaced(threshold_m=1.0)
