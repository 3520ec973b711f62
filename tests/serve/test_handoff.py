"""Session handoff: per-relay segments, exactness, faults, checkpoints.

Phase disentanglement leaves a per-relay constant phase in every
channel, so a session served by several relays must never sum their
poses coherently. These tests pin the whole mechanism: relay changes
split staged batches and swap segment triples; a returning relay
resumes its archived segment; the finalize fix combines segments
noncoherently and *exactly* (staging order cannot change the bits);
the ``relay.handoff`` fault site stalls or loudly drops the first
updates after a swap; and checkpoints round-trip the archive.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import faults
from repro.constants import SPEED_OF_LIGHT, UHF_CENTER_FREQUENCY
from repro.faults import FaultPlan
from repro.localization import Grid2D
from repro.localization.measurement import MeasurementModel
from repro.mobility.trajectory import LineTrajectory
from repro.serve import (
    Admission,
    LocalizationService,
    PendingUpdate,
    ServeConfig,
    TagSession,
)

F = UHF_CENTER_FREQUENCY
TAG = np.array([1.2, 1.1])


def make_config(**overrides):
    params = {"frequency_hz": F, "session_ttl_s": 1e9, **overrides}
    return ServeConfig(**params)


def make_grid():
    return Grid2D(-0.5, 3.0, 0.2, 2.5, 0.15)


def updates_from(relay, n, start=0, arrival_s=0.0, phase=0.0):
    """n line-poses tagged with ``relay``, offset ``phase`` radians.

    The constant per-relay phase models what disentanglement leaves
    behind: each relay's reference RFID sits at a different electrical
    distance, so its whole segment is rotated by one unknown angle.
    """
    xs = np.linspace(0.0, 2.5, 12)[start : start + n]
    positions = np.column_stack([xs, np.zeros(n)])
    d = np.linalg.norm(positions - TAG, axis=1)
    channels = np.exp(
        -2j * np.pi * F * 2.0 * d / SPEED_OF_LIGHT + 1j * phase
    )
    return [
        PendingUpdate(
            position=positions[i],
            channel=complex(channels[i]),
            arrival_s=arrival_s + 0.01 * i,
            seq=start + i,
            relay=relay,
        )
        for i in range(n)
    ]


class TestSegmentSwitching:
    def test_mixed_batch_splits_into_runs(self):
        session = TagSession("s", make_config(), make_grid())
        batch = (
            updates_from("a", 4)
            + updates_from("b", 4, start=4, phase=1.0)
            + updates_from("a", 4, start=8)
        )
        session.apply_batch(batch, degraded=False)
        # a -> b -> a: two handoffs, and relay a's segment was resumed
        # (not restarted), so it holds all 8 of a's poses.
        assert session.handoffs == 2
        assert session.active_relay == "a"
        assert session.full.n_poses == 8
        assert session.total_lag_poses == 0

    def test_constant_relay_traffic_never_hands_off(self):
        session = TagSession("s", make_config(), make_grid())
        for start in (0, 4, 8):
            session.apply_batch(
                updates_from("", 4, start=start), degraded=False
            )
        assert session.handoffs == 0
        assert session.active_relay == ""
        assert session.full.n_poses == 12

    def test_archived_lag_counts_toward_total(self):
        session = TagSession("s", make_config(), make_grid())
        session.apply_batch(updates_from("a", 4), degraded=True)
        session.apply_batch(
            updates_from("b", 4, start=4, phase=1.0), degraded=True
        )
        assert session.lag_poses == 4  # active (b) segment only
        assert session.total_lag_poses == 8

    def test_estimate_stays_available_across_handoff(self):
        # Quick estimates must keep answering mid-stream after a
        # handoff (the archive path), and stay inside the search grid.
        session = TagSession("s", make_config(), make_grid())
        session.apply_batch(updates_from("a", 6), degraded=False)
        session.apply_batch(
            updates_from("b", 6, start=6, phase=1.0), degraded=True
        )
        fix = session.estimate()
        grid = make_grid()
        assert grid.x_min <= fix[0] <= grid.x_max
        assert grid.y_min <= fix[1] <= grid.y_max


class TestHandoffExactness:
    def test_finalize_is_invariant_to_degraded_staging(self):
        """Deferral across a handoff costs nothing: FULL-mode and
        DEGRADED-then-catch-up runs finalize to identical bits."""
        batches = [
            ("a", 0, 0.0),
            ("b", 4, 1.3),
            ("a", 8, 0.0),
        ]
        eager = TagSession("s", make_config(), make_grid())
        lazy = TagSession("s", make_config(), make_grid())
        for relay, start, phase in batches:
            eager.apply_batch(
                updates_from(relay, 4, start=start, phase=phase),
                degraded=False,
            )
            lazy.apply_batch(
                updates_from(relay, 4, start=start, phase=phase),
                degraded=True,
            )
        eager_fix = eager.finalize()
        lazy_fix = lazy.finalize()
        np.testing.assert_array_equal(
            eager_fix.position, lazy_fix.position
        )
        assert lazy.total_lag_poses == 0

    def test_relay_phase_offsets_do_not_corrupt_the_fix(self):
        """The reason segments exist: an adversarial inter-relay phase
        must not move the combined fix (noncoherent combination)."""
        aligned = TagSession("s", make_config(), make_grid())
        rotated = TagSession("s", make_config(), make_grid())
        for session, phase_b in ((aligned, 0.0), (rotated, np.pi)):
            session.apply_batch(updates_from("a", 6), degraded=False)
            session.apply_batch(
                updates_from("b", 6, start=6, phase=phase_b),
                degraded=False,
            )
        fix_aligned = aligned.finalize().position
        fix_rotated = rotated.finalize().position
        np.testing.assert_allclose(
            fix_aligned, fix_rotated, atol=1e-9
        )
        assert np.linalg.norm(fix_rotated - TAG) < 0.3


class TestCheckpointRoundTrip:
    def test_archive_survives_checkpoint(self):
        session = TagSession("s", make_config(), make_grid())
        session.apply_batch(updates_from("a", 4), degraded=True)
        session.apply_batch(
            updates_from("b", 4, start=4, phase=1.0), degraded=False
        )
        session.last_ingest_relay = "b"
        clone = pickle.loads(pickle.dumps(session))
        assert clone.handoffs == 1
        assert clone.active_relay == "b"
        assert clone.last_ingest_relay == "b"
        assert clone.total_lag_poses == session.total_lag_poses
        np.testing.assert_array_equal(
            clone.finalize().position, session.finalize().position
        )


def measurements_with_relay(relay, n, start, seed=0):
    rng = np.random.default_rng(seed)
    model = MeasurementModel(
        reader_position=(-8.0, 0.0), reader_frequency_hz=F
    )
    samples = LineTrajectory((0.0, 0.0), (2.5, 0.0)).sample_every(
        2.5 / 11
    )[start : start + n]
    out = []
    for sample in samples:
        m = model.measure(
            sample.position, TAG, rng=rng, snr_db=30.0, time=sample.time
        )
        out.append(
            type(m)(
                position=m.position,
                h_target=m.h_target,
                h_reference=m.h_reference,
                snr_db=m.snr_db,
                time=m.time,
                relay=relay,
            )
        )
    return out


class TestServiceHandoffAccounting:
    def _run(self, fault_plan=None, **config):
        service = LocalizationService(make_config(**config))
        service.open_session("s", make_grid())
        admitted = rejected = 0
        now = 0.0

        def feed(batch):
            nonlocal admitted, rejected, now
            for m in batch:
                now += 0.01
                if service.submit("s", m, now_s=now) is Admission.ACCEPTED:
                    admitted += 1
                else:
                    rejected += 1
            service.drain()

        if fault_plan is not None:
            with faults.engaged(fault_plan):
                feed(measurements_with_relay("a", 6, 0))
                feed(measurements_with_relay("b", 6, 6))
        else:
            feed(measurements_with_relay("a", 6, 0))
            feed(measurements_with_relay("b", 6, 6))
        return service, admitted, rejected

    def test_handoff_counted_with_latency(self):
        service, admitted, rejected = self._run()
        report = service.report()
        assert report.handoffs == 1
        assert report.mean_handoff_latency_s > 0.0
        assert rejected == 0
        assert admitted == 12

    def test_handoff_drop_is_loud(self):
        plan = FaultPlan.single("relay.handoff", "drop", rate=1.0)
        service, admitted, rejected = self._run(fault_plan=plan)
        # Every post-handoff arrival from relay b is dropped (the
        # session never re-anchors to b), and each drop is flagged.
        assert rejected == 6
        assert service.report().updates_rejected == 6
        assert service.session_data_loss("s") > 0
        assert service.report().handoffs == 0

    def test_handoff_stall_charges_the_server(self):
        baseline, _, _ = self._run()
        plan = FaultPlan.single(
            "relay.handoff", "stall", rate=1.0, magnitude=0.05
        )
        stalled, admitted, rejected = self._run(fault_plan=plan)
        assert rejected == 0
        assert stalled.report().handoffs == 1
        assert stalled.report().busy_s > baseline.report().busy_s

    @pytest.mark.parametrize("capacity_mode", ["shared", "partitioned"])
    def test_handoff_stall_delays_the_session(self, capacity_mode):
        baseline, _, _ = self._run(capacity_mode=capacity_mode)
        plan = FaultPlan.single(
            "relay.handoff", "stall", rate=1.0, magnitude=0.5
        )
        stalled, _, _ = self._run(
            fault_plan=plan, capacity_mode=capacity_mode
        )
        assert (
            stalled.report().p99_latency_s
            > baseline.report().p99_latency_s
        )
