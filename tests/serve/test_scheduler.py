"""Micro-batch planning: ordering, batching, and the degrade decision."""

import numpy as np

from repro.constants import SPEED_OF_LIGHT, UHF_CENTER_FREQUENCY
from repro.localization import Grid2D
from repro.serve import (
    MicroBatchScheduler,
    PendingUpdate,
    ServeConfig,
    TagSession,
)

F = UHF_CENTER_FREQUENCY


def make_config(**overrides):
    params = {
        "frequency_hz": F,
        "latency_slo_s": 0.25,
        "queue_capacity": 64,
        "max_batch_poses": 8,
        **overrides,
    }
    return ServeConfig(**params)


def make_session(session_id, config, queued=0, arrival_s=0.0):
    session = TagSession(
        session_id, config, Grid2D(-0.5, 3.0, 0.2, 2.5, 0.15)
    )
    for seq in range(queued):
        position = np.array([0.1 * seq, 0.0])
        d = float(np.linalg.norm(position - np.array([1.0, 1.0])))
        channel = complex(
            np.exp(-2j * np.pi * F * 2.0 * d / SPEED_OF_LIGHT)
        )
        session.offer(
            PendingUpdate(
                position=position,
                channel=channel,
                arrival_s=arrival_s + 0.001 * seq,
                seq=seq,
            ),
            arrival_s,
        )
    return session


class TestPlanRound:
    def test_empty_sessions_plan_nothing(self):
        config = make_config()
        scheduler = MicroBatchScheduler(config)
        sessions = {"a": make_session("a", config, queued=0)}
        assert scheduler.plan_round(sessions, 0.0, {}) == []

    def test_oldest_queued_session_goes_first(self):
        config = make_config()
        scheduler = MicroBatchScheduler(config)
        sessions = {
            "young": make_session("young", config, queued=2, arrival_s=5.0),
            "old": make_session("old", config, queued=2, arrival_s=1.0),
        }
        plans = scheduler.plan_round(sessions, 5.0, {})
        assert [p.session_id for p in plans] == ["old", "young"]

    def test_session_id_breaks_arrival_ties(self):
        config = make_config()
        scheduler = MicroBatchScheduler(config)
        sessions = {
            "b": make_session("b", config, queued=1, arrival_s=1.0),
            "a": make_session("a", config, queued=1, arrival_s=1.0),
        }
        plans = scheduler.plan_round(sessions, 1.0, {})
        assert [p.session_id for p in plans] == ["a", "b"]

    def test_batches_are_capped_at_max_batch_poses(self):
        config = make_config(max_batch_poses=3)
        scheduler = MicroBatchScheduler(config)
        sessions = {"a": make_session("a", config, queued=10)}
        plans = scheduler.plan_round(sessions, 0.0, {})
        assert len(plans) == 1
        assert len(plans[0].updates) == 3
        assert len(sessions["a"].pending) == 7

    def test_fresh_work_plans_full_resolution(self):
        config = make_config()
        scheduler = MicroBatchScheduler(config)
        sessions = {"a": make_session("a", config, queued=4, arrival_s=0.0)}
        plans = scheduler.plan_round(sessions, 0.0, {})
        assert plans[0].degraded is False

    def test_stale_backlog_degrades_the_batch(self):
        config = make_config(latency_slo_s=0.1)  # threshold 0.05 s
        scheduler = MicroBatchScheduler(config)
        sessions = {"a": make_session("a", config, queued=4, arrival_s=0.0)}
        plans = scheduler.plan_round(sessions, 1.0, {})
        assert plans[0].degraded is True

    def test_projected_backlog_degrades_later_batches(self):
        # A huge earlier batch pushes the projected wait of the next
        # session past the threshold even though both just arrived.
        config = make_config(
            latency_slo_s=0.1,
            service_rate_nodes_per_s=1e4,
            max_batch_poses=8,
        )
        scheduler = MicroBatchScheduler(config)
        sessions = {
            "a": make_session("a", config, queued=8, arrival_s=0.0),
            "b": make_session("b", config, queued=2, arrival_s=0.001),
        }
        plans = scheduler.plan_round(sessions, 0.002, {})
        assert plans[0].session_id == "a"
        assert plans[0].degraded is False
        assert plans[1].session_id == "b"
        assert plans[1].degraded is True

    def test_partitioned_sessions_wait_only_for_their_own_server(self):
        # The same round under partitioned capacity: "a"'s batch is on
        # another server, so it delays "b" not at all, while "b"'s own
        # busy horizon still counts.
        config = make_config(
            latency_slo_s=0.1,
            service_rate_nodes_per_s=1e4,
            max_batch_poses=8,
            capacity_mode="partitioned",
        )
        scheduler = MicroBatchScheduler(config)

        def plan_b(busy_until_s):
            sessions = {
                "a": make_session("a", config, queued=8, arrival_s=0.0),
                "b": make_session("b", config, queued=2, arrival_s=0.001),
            }
            return scheduler.plan_round(sessions, 0.002, busy_until_s)[1]

        assert plan_b({"a": 10.0}).degraded is False
        assert plan_b({"b": 10.0}).degraded is True

    def test_existing_backlog_feeds_the_decision(self):
        config = make_config(latency_slo_s=0.1)
        scheduler = MicroBatchScheduler(config)
        sessions = {"a": make_session("a", config, queued=2, arrival_s=0.0)}
        plans = scheduler.plan_round(sessions, 0.0, {"": 10.0})
        assert plans[0].degraded is True

    def test_catchup_rides_only_on_full_batches(self):
        config = make_config(catchup_poses=4)
        scheduler = MicroBatchScheduler(config)
        session = make_session("a", config, queued=2, arrival_s=0.0)
        session.apply_batch(
            session.pending.take(1), degraded=True
        )  # creates lag
        assert session.lag_poses == 1

        fresh_plans = scheduler.plan_round({"a": session}, 0.0, {})
        assert fresh_plans[0].degraded is False
        assert fresh_plans[0].catchup_poses == 1

    def test_degraded_batches_defer_catchup(self):
        config = make_config(latency_slo_s=0.1, catchup_poses=4)
        scheduler = MicroBatchScheduler(config)
        session = make_session("a", config, queued=2, arrival_s=0.0)
        session.apply_batch(session.pending.take(1), degraded=True)
        plans = scheduler.plan_round({"a": session}, 5.0, {})
        assert plans[0].degraded is True
        assert plans[0].catchup_poses == 0

    def test_cost_includes_both_grids_for_full_batches(self):
        config = make_config()
        scheduler = MicroBatchScheduler(config)
        session = make_session("a", config, queued=2, arrival_s=0.0)
        plans = scheduler.plan_round({"a": session}, 0.0, {})
        expected_nodes = 2 * (session.full_nodes + session.degraded_nodes)
        assert plans[0].projected_nodes == expected_nodes
        assert plans[0].cost_s == config.batch_cost_s(expected_nodes)
