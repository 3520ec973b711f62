"""Shard failover: kill a worker mid-run, restore from checkpoints.

The failover contract has three clauses, each pinned here:

* **Continuity** — with replica checkpoints attached, a ``serve.shard``
  reboot (injected or explicit) restores every killed session on its
  next touch, the recovery is counted, and sessions whose streams had
  no in-flight loss finalize to exactly the fault-free fix.
* **Loud loss** — pending updates dropped by the crash are accounted
  per session (``session_data_loss``), so a fix computed from a holed
  stream is *flagged*, never silently wrong.
* **No silent resurrection** — without a checkpoint cache the next
  touch of a killed session raises, it does not fabricate state.
"""

import numpy as np
import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import SessionNotFoundError
from repro.faults import FaultPlan, Trigger
from repro.runtime.cache import ResultCache
from repro.scenarios.compiler import generate_workload
from repro.serve import (
    ServeConfig,
    ShardConfig,
    ShardedLocalizationService,
    run_sharded_workload,
)

F = UHF_CENTER_FREQUENCY
N_SHARDS = 4


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        "conveyor_flow_through", n_tags=5, seed=4, load=12.0, grid_resolution=0.15
    )


def config():
    return ServeConfig(
        frequency_hz=F,
        capacity_mode="partitioned",
        session_ttl_s=1e9,
    )


def shard_kill_plan(shard_index: int, kills: int = 1) -> FaultPlan:
    """Reboot shard ``shard_index`` on its first ``kills`` events.

    The ``serve.shard`` hook passes the shard index as the fault
    engine's ``index``, so a ``pose_index`` window of ``[k, k+1)``
    targets exactly one worker of the fleet.
    """
    return FaultPlan.single(
        "serve.shard",
        "reboot",
        trigger=Trigger(
            kind="pose_index", start=shard_index, stop=shard_index + 1
        ),
        max_injections=kills,
    )


class TestInjectedShardReboot:
    def test_checkpointed_failover_reproduces_fault_free_fixes(
        self, workload, tmp_path
    ):
        baseline = run_sharded_workload(
            workload,
            config(),
            ShardConfig(n_shards=N_SHARDS),
            cache=ResultCache(tmp_path / "baseline"),
        )
        victim = baseline.assignment[sorted(baseline.assignment)[0]]
        victim_index = int(victim.split("-")[1])
        faulted = run_sharded_workload(
            workload,
            config(),
            ShardConfig(n_shards=N_SHARDS),
            cache=ResultCache(tmp_path / "faulted"),
            fault_plan=shard_kill_plan(victim_index, kills=2),
        )
        # The workload replay steps after every submit, so queues are
        # empty when the reboot lands: checkpoints capture everything,
        # nothing is lost, and every fix must be bit-identical.
        assert faulted.service.recoveries > baseline.service.recoveries
        assert faulted.service.updates_lost == 0
        assert faulted.session_loss == {}
        assert faulted.estimates.keys() == baseline.estimates.keys()
        for session_id, fix in baseline.estimates.items():
            assert np.array_equal(faulted.estimates[session_id], fix)
        assert faulted.ladders == baseline.ladders

    def test_reboot_without_cache_fails_loudly(self, workload):
        victim = ShardConfig(n_shards=N_SHARDS).ring().route(
            sorted(workload.grids)[0]
        )
        with pytest.raises(SessionNotFoundError):
            run_sharded_workload(
                workload,
                config(),
                ShardConfig(n_shards=N_SHARDS),
                fault_plan=shard_kill_plan(int(victim.split("-")[1])),
            )


class TestExplicitShardKill:
    """Crash a worker while updates sit queued: loss must be flagged."""

    def _replay(self, workload, cache, kill_after=None):
        service = ShardedLocalizationService(
            config(), ShardConfig(n_shards=N_SHARDS), cache=cache
        )
        for session_id, grid in workload.grids.items():
            service.open_session(session_id, grid, now_s=0.0)
        victim_sid = sorted(workload.grids)[0]
        victim = service.route(victim_sid)
        killed = False
        lost = 0
        for index, event in enumerate(workload.events):
            service.submit(
                event.session_id, event.measurement, now_s=event.time_s
            )
            if kill_after is not None and index == kill_after and not killed:
                # Deliberately *before* the round runs: the victim
                # worker's queues still hold this round's updates.
                lost = service.kill_shard(victim, now_s=event.time_s)
                killed = True
            service.step(now_s=event.time_s)
        service.drain()
        fixes = {}
        for session_id in sorted(workload.grids):
            worker = service.worker_of(session_id)
            live = worker.store.sessions().get(session_id)
            if live is None or live.degraded.n_poses < 2:
                continue
            fixes[session_id] = service.finalize(
                session_id, now_s=workload.duration_s
            ).position
        return service, victim, lost, fixes

    def test_lost_updates_flag_exactly_the_victim_sessions(
        self, workload, tmp_path
    ):
        kill_after = len(workload.events) // 2
        clean_service, victim, _, clean_fixes = self._replay(
            workload, ResultCache(tmp_path / "clean")
        )
        service, victim2, lost, fixes = self._replay(
            workload, ResultCache(tmp_path / "killed"), kill_after=kill_after
        )
        assert victim2 == victim
        assert lost > 0
        flagged = {
            session_id: service.session_data_loss(session_id)
            for session_id in workload.grids
            if service.session_data_loss(session_id)
        }
        # Loss is accounted exactly, and only on the crashed worker.
        assert sum(flagged.values()) == lost
        assert flagged
        for session_id in flagged:
            assert service.route(session_id) == victim
        # Zero unflagged wrong fixes: every session the crash did not
        # touch reproduces the fault-free fix bit for bit.
        for session_id, fix in fixes.items():
            if session_id not in flagged:
                assert np.array_equal(fix, clean_fixes[session_id])
        report = service.report()
        assert report.updates_lost == lost
        assert report.recoveries > clean_service.report().recoveries
