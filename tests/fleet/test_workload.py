"""Fleet traffic generation: the pinned single-relay stream and the
merged multi-relay stream's ordering/tagging contracts."""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.fleet.plan import scale_fleet
from repro.scenarios import registry
from repro.scenarios.compiler import generate_workload

BASE = "conveyor_flow_through"

#: ``stream_digest`` of ``generate_workload(BASE, n_tags=3, seed=0,
#: load=8.0)``, pinned from the dedicated single-relay generator that
#: lowered plain scenarios before every scenario went through the
#: fleet generator. A plain scenario and a one-relay fleet must both
#: still produce exactly that stream.
SINGLE_RELAY_DIGEST = (
    "46257425fa700003f99fa5b91d966e856e50e462930e068f1060a737db39e6d7"
)


def stream_digest(workload) -> str:
    """sha256 over every event's time, session, pose and channel bits."""
    digest = hashlib.sha256()
    for event in workload.events:
        m = event.measurement
        digest.update(struct.pack("<d", event.time_s))
        digest.update(event.session_id.encode("utf-8"))
        digest.update(np.asarray(m.position, dtype=float).tobytes())
        digest.update(
            struct.pack(
                "<6d",
                m.h_target.real,
                m.h_target.imag,
                m.h_reference.real,
                m.h_reference.imag,
                m.snr_db,
                m.time,
            )
        )
    return digest.hexdigest()


def assert_same_physics(got, want):
    """Bitwise measurement equality, ignoring the relay name tag."""
    np.testing.assert_array_equal(got.position, want.position)
    assert got.h_target == want.h_target
    assert got.h_reference == want.h_reference
    assert got.snr_db == want.snr_db
    assert got.time == want.time


def base_workload(**kwargs):
    return generate_workload(BASE, **kwargs)


def fleet_workload(n, **kwargs):
    return generate_workload(
        scale_fleet(registry.get(BASE), n), **kwargs
    )


class TestSingleRelayBitIdentity:
    def test_single_relay_stream_is_pinned(self):
        plain = base_workload(n_tags=3, seed=0, load=8.0)
        fleet = fleet_workload(1, n_tags=3, seed=0, load=8.0)
        for workload in (plain, fleet):
            assert stream_digest(workload) == SINGLE_RELAY_DIGEST
            assert {e.measurement.relay for e in workload.events} == {
                "relay-00"
            }
        # A declared fleet of one is the implicit one.
        assert fleet.duration_s == plain.duration_s
        assert fleet.grids.keys() == plain.grids.keys()
        for session_id, grid in plain.grids.items():
            assert fleet.grids[session_id].resolution == grid.resolution
        for session_id, position in plain.tag_positions.items():
            np.testing.assert_array_equal(
                fleet.tag_positions[session_id], position
            )

    def test_compiler_delegates_fleet_scenarios(self):
        # generate_workload on a fleet scenario must route through the
        # fleet generator (events carry relay names), not silently
        # ignore the fleet block.
        workload = fleet_workload(2, n_tags=3, seed=0, load=8.0)
        relays = {event.measurement.relay for event in workload.events}
        assert relays == {"relay-00", "relay-01"}


class TestMultiRelayStream:
    def _workload(self, n=2, seed=0):
        return fleet_workload(n, n_tags=3, seed=seed, load=8.0)

    def test_events_sorted_by_time_then_session(self):
        workload = self._workload()
        keys = [(e.time_s, e.session_id) for e in workload.events]
        assert keys == sorted(keys)

    def test_deterministic_under_seed(self):
        first = self._workload(seed=4)
        second = self._workload(seed=4)
        assert len(first.events) == len(second.events)
        for a, b in zip(first.events, second.events):
            assert a.time_s == b.time_s
            assert a.session_id == b.session_id
            assert a.measurement.relay == b.measurement.relay
            assert_same_physics(a.measurement, b.measurement)

    def test_fleet_scans_faster(self):
        # N segments flown simultaneously: the whole aisle is covered
        # in roughly 1/N the (virtual) wall time.
        single = self._workload(n=1)
        quad = self._workload(n=4)
        assert quad.duration_s < single.duration_s * 0.75

    def test_boundary_tags_hand_off(self):
        # At least one session must be served by both relays — the
        # overlap region guarantees it for tags near the midline.
        workload = self._workload(n=2)
        by_session = {}
        for event in workload.events:
            by_session.setdefault(event.session_id, set()).add(
                event.measurement.relay
            )
        assert any(len(relays) > 1 for relays in by_session.values())
