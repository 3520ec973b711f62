"""Large rings and heterogeneous-report merging.

``test_shard_router`` pins the ring's contract at small M; fleets push
the shard count past 8, so these tests pin the same properties at
M=12..16 — every shard still owns keys, churn on removal stays ~1/M,
and scale-out past ``shard-09`` keeps the two-digit id scheme distinct.
The merge half pins :func:`repro.serve.shard.merge_service_reports`
on *heterogeneous* per-shard reports: shards see different handoff
counts (many see none), and the merged report must not depend on the
order the shards are listed in.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serve.service import ServiceReport
from repro.serve.shard import (
    ShardRing,
    default_shard_ids,
    merge_service_reports,
)


class TestLargeRings:
    def test_every_shard_owns_keys_at_m16(self):
        ring = ShardRing(16)
        keys = [f"tag-{index:05d}" for index in range(4000)]
        owners = {ring.route(key) for key in keys}
        assert owners == set(default_shard_ids(16))

    def test_two_digit_ids_stay_distinct_past_ten(self):
        ids = default_shard_ids(12)
        assert len(set(ids)) == 12
        assert ids[9] == "shard-09"
        assert ids[10] == "shard-10"
        # shard-1 would prefix-collide with shard-10..11 under sloppy
        # formatting; the zero-padded scheme keeps vnode materials
        # (and therefore routes) unambiguous.
        assert "shard-1" not in ids

    def test_removal_churn_stays_bounded_at_m12(self):
        keys = [f"tag-{index:05d}" for index in range(4000)]
        ring = ShardRing(12)
        shrunk = ring.without("shard-07")
        moved = 0
        for key in keys:
            before = ring.route(key)
            after = shrunk.route(key)
            if before == "shard-07":
                assert after != "shard-07"
                moved += 1
            else:
                assert after == before
        # Only the victim's keys remigrate: ~1/12 of the keyspace,
        # tolerating vnode placement variance.
        assert 0 < moved < len(keys) * 2.5 / 12

    def test_scale_out_from_m12_only_steals(self):
        keys = [f"tag-{index:05d}" for index in range(2000)]
        ring = ShardRing(12)
        grown = ShardRing(ring.shard_ids + ("shard-12",))
        stolen = 0
        for key in keys:
            before = ring.route(key)
            after = grown.route(key)
            assert after in (before, "shard-12")
            stolen += after == "shard-12"
        assert 0 < stolen < len(keys) * 2.5 / 13

    def test_churn_round_trip_restores_routing(self):
        ring = ShardRing(14)
        rebuilt = ShardRing(ring.without("shard-03").shard_ids + ("shard-03",))
        keys = [f"tag-{index:04d}" for index in range(500)]
        assert ring.table(keys) == rebuilt.table(keys)

    def test_duplicate_shard_rejected_on_big_ring(self):
        with pytest.raises(ConfigurationError, match="unique"):
            ShardRing(ShardRing(12).shard_ids + ("shard-05",))


def _report(**overrides) -> ServiceReport:
    base = dict(
        updates_accepted=10,
        updates_applied=8,
        updates_degraded=1,
        updates_shed=1,
        full_batches=3,
        degraded_batches=1,
        catchup_poses=2,
        busy_s=1.0,
    )
    base.update(overrides)
    return ServiceReport(**base)


class TestHeterogeneousHandoffMerge:
    """Shards see wildly different handoff traffic; the merge must not
    care which order they are listed in."""

    def _shards(self):
        # Three shards with handoffs (different counts and latencies),
        # one with none — the common fleet shape, where only boundary
        # tags' shards ever hand off.
        return [
            _report(
                handoffs=3,
                busy_s=2.0,
                latency_samples_s=(0.01, 0.02),
                handoff_samples_s=(0.15, 0.2, 0.25),
            ),
            _report(
                handoffs=1,
                recoveries=1,
                latency_samples_s=(0.03,),
                recovery_samples_s=(0.5,),
                handoff_samples_s=(0.5,),
            ),
            _report(handoffs=0, latency_samples_s=(0.004,)),
            _report(
                handoffs=2,
                busy_s=1.5,
                latency_samples_s=(0.02, 0.05),
                handoff_samples_s=(0.1, 0.1),
            ),
        ]

    def test_counters_add_and_samples_pool(self):
        reports = self._shards()
        merged = merge_service_reports(reports)
        assert merged.handoffs == 6
        assert merged.recoveries == 1
        assert merged.updates_applied == 32
        pooled = [s for r in reports for s in r.handoff_samples_s]
        assert merged.mean_handoff_latency_s == pytest.approx(
            float(np.mean(pooled))
        )
        assert merged.latency_samples_s == (
            0.004, 0.01, 0.02, 0.02, 0.03, 0.05
        )
        assert merged.mean_recovery_latency_s == 0.5
        assert merged.busy_s == 2.0  # makespan, not a sum

    def test_merge_is_order_insensitive(self):
        reports = self._shards()
        baseline = merge_service_reports(reports)
        for order in itertools.permutations(range(len(reports))):
            permuted = merge_service_reports([reports[i] for i in order])
            # Bitwise identical, not approximately: the merge sorts
            # pooled samples before reducing, so float association
            # cannot leak shard order into the report.
            assert permuted == baseline

    def test_no_handoffs_anywhere_reports_zero(self):
        merged = merge_service_reports(
            [
                _report(latency_samples_s=(0.01,)),
                _report(latency_samples_s=(0.02,)),
            ]
        )
        assert merged.handoffs == 0
        assert merged.mean_handoff_latency_s == 0.0
