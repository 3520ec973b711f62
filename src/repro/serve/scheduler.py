"""The micro-batch scheduler and the degradation decision.

One scheduling *round* coalesces every session's pending updates into
per-session micro-batches and orders them deterministically: oldest
queued work first, session id as the tie-break. The service stages the
round's batches and folds them all in one stacked
:func:`~repro.localization.batched.fold_blocks` call. The scheduler
plans against the virtual cost model, keeping a running projection of
each virtual server's backlog (:meth:`ServeConfig.server_of`) as it
lays batches out — so when the projected queueing delay of a batch
crosses ``degrade_threshold_s`` (half the latency SLO), that batch
(and the rest of an overloaded round on the same server) drops to the
degraded grid, which is 3x coarser and so roughly 9x cheaper per pose
(:data:`~repro.serve.session.DEGRADED_RESOLUTION_FACTOR`).
Catch-up of deferred full-resolution work rides along only while the
server is ahead of the SLO.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.serve.config import ServeConfig
from repro.serve.queueing import PendingUpdate
from repro.serve.session import TagSession


@dataclass(frozen=True)
class BatchPlan:
    """One planned micro-batch for one session."""

    session_id: str
    updates: Tuple[PendingUpdate, ...]
    degraded: bool
    catchup_poses: int
    projected_nodes: int
    cost_s: float


def _batch_nodes(
    session: TagSession,
    n_updates: int,
    degraded: bool,
    catchup_poses: int,
) -> int:
    """Grid nodes one planned batch will project."""
    nodes = n_updates * session.degraded_nodes
    if not degraded:
        nodes += n_updates * session.full_nodes
    nodes += catchup_poses * session.full_nodes
    return nodes


class MicroBatchScheduler:
    """Plans deterministic micro-batch rounds under the latency SLO."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config

    def plan_round(
        self,
        sessions: Dict[str, TagSession],
        now_s: float,
        busy_until_s: Mapping[str, float],
    ) -> List[BatchPlan]:
        """Lay out one round of micro-batches over the pending work.

        ``busy_until_s`` maps each virtual server to the virtual time
        its committed work ends. Sessions are visited
        oldest-head-first; each batch's degradation mode is decided
        from the delay its *first* update would see — queue wait so
        far plus its server's projected backlog, which grows by every
        batch already planned this round for the same server. Under
        partitioned capacity a session is its own server and is
        planned at most once per round, so sessions never couple
        through the scheduler — which is what shard-invariance
        requires.
        """
        config = self.config
        ready = [
            (buffer_oldest_s, session_id)
            for session_id, session in sessions.items()
            for buffer_oldest_s in [session.pending.oldest_arrival_s]
            if buffer_oldest_s is not None
        ]
        ready.sort()
        plans: List[BatchPlan] = []
        backlog_s: Dict[str, float] = {}
        for oldest_arrival_s, session_id in ready:
            session = sessions[session_id]
            updates = session.pending.take(config.max_batch_poses)
            if not updates:
                continue
            server = config.server_of(session_id)
            projected_s = backlog_s.get(
                server, max(0.0, busy_until_s.get(server, 0.0) - now_s)
            )
            wait_s = (now_s - oldest_arrival_s) + projected_s
            degraded = wait_s > config.degrade_threshold_s
            catchup_poses = 0
            if not degraded and session.lag_poses > 0:
                catchup_poses = min(session.lag_poses, config.catchup_poses)
            nodes = _batch_nodes(
                session, len(updates), degraded, catchup_poses
            )
            cost_s = config.batch_cost_s(nodes)
            plans.append(
                BatchPlan(
                    session_id=session_id,
                    updates=tuple(updates),
                    degraded=degraded,
                    catchup_poses=catchup_poses,
                    projected_nodes=nodes,
                    cost_s=cost_s,
                )
            )
            backlog_s[server] = projected_s + cost_s
        return plans
