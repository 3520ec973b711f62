"""Tag sessions: dual accumulators, lag catch-up, TTL store, checkpoints."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.constants import SPEED_OF_LIGHT, UHF_CENTER_FREQUENCY
from repro.errors import ServeError, SessionNotFoundError
from repro.localization import Grid2D
from repro.runtime.cache import ResultCache
from repro.serve import (
    Admission,
    PendingUpdate,
    ServeConfig,
    SessionStore,
    TagSession,
)

F = UHF_CENTER_FREQUENCY
TAG = np.array([1.2, 1.1])


def make_config(**overrides):
    params = {
        "frequency_hz": F,
        "queue_capacity": 4,
        "session_ttl_s": 10.0,
        **overrides,
    }
    return ServeConfig(**params)


def make_grid():
    return Grid2D(-0.5, 3.0, 0.2, 2.5, 0.15)


def updates_along_line(n, arrival_s=0.0):
    xs = np.linspace(0.0, 2.5, n)
    positions = np.column_stack([xs, np.zeros(n)])
    d = np.linalg.norm(positions - TAG, axis=1)
    channels = np.exp(-2j * np.pi * F * 2.0 * d / SPEED_OF_LIGHT)
    return [
        PendingUpdate(
            position=positions[i],
            channel=complex(channels[i]),
            arrival_s=arrival_s + 0.01 * i,
            seq=i,
        )
        for i in range(n)
    ]


class TestTagSession:
    def test_degraded_grid_is_coarser_but_same_extent(self):
        session = TagSession("s", make_config(), make_grid())
        assert session.degraded_nodes < session.full_nodes
        assert session.degraded.grid.x_min == session.full.grid.x_min
        assert session.degraded.grid.x_max == session.full.grid.x_max

    def test_offer_respects_queue_capacity(self):
        session = TagSession("s", make_config(queue_capacity=2), make_grid())
        batch = updates_along_line(3)
        assert session.offer(batch[0], 0.0) is Admission.ACCEPTED
        assert session.offer(batch[1], 0.0) is Admission.ACCEPTED
        assert session.offer(batch[2], 0.0) is Admission.SHED
        assert session.stats.accepted == 2
        assert session.stats.shed == 1

    def test_full_batch_feeds_both_accumulators(self):
        session = TagSession("s", make_config(), make_grid())
        session.apply_batch(updates_along_line(6), degraded=False)
        assert session.full.n_poses == 6
        assert session.degraded.n_poses == 6
        assert session.lag_poses == 0

    def test_degraded_batch_defers_full_resolution_work(self):
        session = TagSession("s", make_config(), make_grid())
        session.apply_batch(updates_along_line(6), degraded=True)
        assert session.full.n_poses == 0
        assert session.degraded.n_poses == 6
        assert session.lag_poses == 6

    def test_catch_up_honors_the_pose_budget(self):
        session = TagSession("s", make_config(), make_grid())
        session.apply_batch(updates_along_line(10), degraded=True)
        session.catch_up(3)
        assert session.full.n_poses == 3
        assert session.lag_poses == 7
        session.catch_up(None)
        assert session.full.n_poses == 10
        assert session.lag_poses == 0

    def test_estimate_falls_back_while_lagging(self):
        session = TagSession("s", make_config(), make_grid())
        session.apply_batch(updates_along_line(8), degraded=True)
        degraded_estimate = session.estimate()
        session.catch_up(None)
        full_estimate = session.estimate()
        # Both estimates localize the same tag; the full one on the
        # finer grid, so it can only be at least as close.
        assert np.linalg.norm(full_estimate - TAG) <= (
            np.linalg.norm(degraded_estimate - TAG) + 1e-12
        )

    def test_finalize_equals_full_mode_finalize(self):
        batch = updates_along_line(12)
        lagging = TagSession("a", make_config(), make_grid())
        lagging.apply_batch(batch, degraded=True)
        direct = TagSession("b", make_config(), make_grid())
        direct.apply_batch(batch, degraded=False)
        np.testing.assert_allclose(
            lagging.finalize().position,
            direct.finalize().position,
            atol=1e-9,
        )

    def test_checkpoint_round_trip_preserves_lag_and_stats(self):
        config = make_config()
        session = TagSession("s", config, make_grid(), opened_s=1.0)
        session.apply_batch(updates_along_line(4), degraded=True)
        session.apply_batch(updates_along_line(4, arrival_s=1.0), degraded=False)
        session.offer(updates_along_line(1, arrival_s=2.0)[0], 2.0)
        clone = pickle.loads(pickle.dumps(session))
        # A checkpoint never holds pending updates.
        assert len(clone.pending) == 0
        assert len(session.pending) == 1
        assert clone.session_id == "s"
        assert clone.lag_poses == session.lag_poses
        assert clone.stats.applied_degraded == 4
        assert clone.stats.applied_full == 4
        np.testing.assert_allclose(
            clone.finalize().position,
            session.finalize().position,
            atol=1e-9,
        )


class TestSessionStore:
    def test_open_get_close(self):
        store = SessionStore(make_config())
        store.open("a", make_grid(), now_s=0.0)
        assert store.get("a").session_id == "a"
        store.close("a")
        with pytest.raises(SessionNotFoundError):
            store.get("a")

    def test_duplicate_open_is_rejected(self):
        store = SessionStore(make_config())
        store.open("a", make_grid())
        with pytest.raises(ServeError):
            store.open("a", make_grid())

    def test_session_limit_is_enforced(self):
        store = SessionStore(make_config(max_sessions=1))
        store.open("a", make_grid())
        with pytest.raises(ServeError):
            store.open("b", make_grid())

    def test_quiesced_sessions_expire_after_ttl(self):
        store = SessionStore(make_config(session_ttl_s=5.0))
        store.open("a", make_grid(), now_s=0.0)
        assert store.evict_expired(4.0) == []
        assert store.evict_expired(6.0) == ["a"]
        assert len(store) == 0

    def test_sessions_with_queued_work_are_never_evicted(self):
        store = SessionStore(make_config(session_ttl_s=5.0))
        session = store.open("a", make_grid(), now_s=0.0)
        session.offer(updates_along_line(1)[0], 0.0)
        assert store.evict_expired(100.0) == []

    def test_eviction_without_cache_loses_the_session(self):
        store = SessionStore(make_config(session_ttl_s=5.0))
        store.open("a", make_grid(), now_s=0.0)
        store.evict_expired(6.0)
        with pytest.raises(SessionNotFoundError):
            store.get_or_restore("a", 7.0)

    def test_eviction_with_cache_restores_transparently(self, tmp_path):
        cache = ResultCache(tmp_path)
        store = SessionStore(make_config(session_ttl_s=5.0), cache)
        session = store.open("a", make_grid(), now_s=0.0)
        session.apply_batch(updates_along_line(6), degraded=False)
        store.evict_expired(6.0)
        assert len(store) == 0
        restored = store.get_or_restore("a", 7.0)
        assert restored.full.n_poses == 6
        assert restored.last_seen_s >= 7.0

    def test_restored_session_finalizes_like_the_original(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = make_config(session_ttl_s=5.0)
        batch = updates_along_line(10)

        store = SessionStore(config, cache)
        store.open("a", make_grid(), now_s=0.0)
        store.get("a").apply_batch(batch, degraded=False)
        store.evict_expired(6.0)
        restored = store.get_or_restore("a", 7.0).finalize()

        reference = TagSession("ref", config, make_grid())
        reference.apply_batch(batch, degraded=False)
        np.testing.assert_allclose(
            restored.position, reference.finalize().position, atol=1e-9
        )

    def test_round_trip_keeps_streaming(self, tmp_path):
        # Killed with an archived relay segment, a lag and queued
        # updates: the restored session streams on to the uninterrupted
        # session's fix bit for bit, and only the queued updates are lost.
        config = make_config(queue_capacity=8)
        stream = updates_along_line(12)
        relay_a = [dataclasses.replace(u, relay="a") for u in stream[:4]]
        relay_b = [dataclasses.replace(u, relay="b") for u in stream[4:]]
        store = SessionStore(config, ResultCache(tmp_path))
        killed = store.open("s", make_grid())
        reference = TagSession("s", config, make_grid())
        for session in (killed, reference):
            session.apply_batch(relay_a, degraded=True)
            session.apply_batch(relay_b[:3], degraded=True)
        for update in relay_b[3:6]:
            killed.offer(update, 0.0)
        assert killed.handoffs == 1
        assert killed.lag_poses == 3
        assert killed.total_lag_poses == 7

        assert store.kill("s") == 3
        restored = store.get_or_restore("s", 1.0)
        assert len(restored.pending) == 0
        for session in (restored, reference):
            session.apply_batch(relay_b[6:], degraded=False)
        np.testing.assert_array_equal(
            restored.finalize().position, reference.finalize().position
        )

    def test_close_forgets_the_checkpoint(self, tmp_path):
        cache = ResultCache(tmp_path)
        store = SessionStore(make_config(session_ttl_s=5.0), cache)
        store.open("a", make_grid(), now_s=0.0)
        store.evict_expired(6.0)
        assert store.restore("a", 7.0) is not None
        store.close("a")
        assert store.restore("a", 8.0) is None

    def test_restore_respects_the_session_limit(self, tmp_path):
        cache = ResultCache(tmp_path)
        store = SessionStore(
            make_config(session_ttl_s=5.0, max_sessions=1), cache
        )
        store.open("a", make_grid(), now_s=0.0)
        store.evict_expired(6.0)
        store.open("b", make_grid(), now_s=7.0)
        with pytest.raises(ServeError):
            store.restore("a", 8.0)
