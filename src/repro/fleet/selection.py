"""Per-tag relay-selection policies.

At every pose instant each powered tag is served by exactly one relay.
When several relays can power it, the policy picks which; a tag that
only one relay powers is served by that relay without consulting the
policy (:mod:`repro.fleet.workload`), so a policy never sees fewer than
two candidates there and a fleet of one never calls it. Policies are
pure, picklable strategy objects (they ride inside sweep-task closures
to process-pool workers).

``nearest`` and ``best_link_budget`` are stateless and deterministic;
``epsilon_greedy`` keeps a per-(tag, relay) running reward (the
Q-learning relay selection of the dronet routing algorithms, collapsed
to a one-step bandit) and draws its exploration from a dedicated
generator spawned off the task seed — never from the workload's base
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.seeding import spawn_task_seeds
from repro.scenarios.spec import FleetSpec

#: Spawn index of the policy's exploration stream under the task seed
#: (relay trajectory children use indices ``0..n_relays-1`` of their
#: own spawn call; the policy spawns one child deeper to stay clear).
_POLICY_SPAWN_INDEX = 1


@dataclass(frozen=True)
class RelayCandidate:
    """One relay currently able to power a tag."""

    index: int
    name: str
    distance_m: float
    link_budget_db: float


@dataclass(frozen=True)
class NearestPolicy:
    """Serve each tag from the closest powering relay (ties: lowest
    fleet index — deterministic and order-stable)."""

    def select(
        self, tag_id: str, candidates: Sequence[RelayCandidate]
    ) -> int:
        """Fleet index of the serving relay."""
        if not candidates:
            raise ConfigurationError("select() needs at least one candidate")
        best = min(candidates, key=lambda c: (c.distance_m, c.index))
        return best.index

    def observe(self, tag_id: str, relay_index: int, reward: float) -> None:
        """Stateless: read outcomes are ignored."""


@dataclass(frozen=True)
class BestLinkBudgetPolicy:
    """Serve each tag from the relay with the strongest end-to-end
    link budget (ties: lowest fleet index)."""

    def select(
        self, tag_id: str, candidates: Sequence[RelayCandidate]
    ) -> int:
        """Fleet index of the serving relay."""
        if not candidates:
            raise ConfigurationError("select() needs at least one candidate")
        best = max(
            candidates, key=lambda c: (c.link_budget_db, -c.index)
        )
        return best.index

    def observe(self, tag_id: str, relay_index: int, reward: float) -> None:
        """Stateless: read outcomes are ignored."""


class EpsilonGreedyPolicy:
    """Epsilon-greedy bandit over relays, learned per tag.

    Exploit: the relay with the highest running reward for this tag
    (unseen relays start at 0; ties break toward the stronger link
    budget, then the lower index — so before any feedback the policy
    behaves like :class:`BestLinkBudgetPolicy`). Explore: with
    probability ``epsilon``, a uniform candidate from the policy's own
    spawned-seed generator. Rewards (1 = the assigned relay read the
    tag at this pose, 0 = it did not) fold in with ``learning_rate``
    as an exponential running mean.
    """

    def __init__(
        self, epsilon: float, learning_rate: float, seed: int
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError("learning_rate must be in (0, 1]")
        self.epsilon = float(epsilon)
        self.learning_rate = float(learning_rate)
        self.seed = int(seed)
        self._rng = np.random.default_rng(
            spawn_task_seeds(seed, _POLICY_SPAWN_INDEX + 1)[
                _POLICY_SPAWN_INDEX
            ]
        )
        self._q: Dict[Tuple[str, int], float] = {}

    def select(
        self, tag_id: str, candidates: Sequence[RelayCandidate]
    ) -> int:
        """Fleet index of the serving relay."""
        if not candidates:
            raise ConfigurationError("select() needs at least one candidate")
        if self.epsilon > 0.0 and self._rng.random() < self.epsilon:
            pick = int(self._rng.integers(0, len(candidates)))
            return candidates[pick].index
        best = max(
            candidates,
            key=lambda c: (
                self._q.get((tag_id, c.index), 0.0),
                c.link_budget_db,
                -c.index,
            ),
        )
        return best.index

    def observe(self, tag_id: str, relay_index: int, reward: float) -> None:
        """Fold one read outcome into the running reward."""
        key = (tag_id, int(relay_index))
        old = self._q.get(key, 0.0)
        self._q[key] = old + self.learning_rate * (float(reward) - old)


SelectionPolicy = Union[
    NearestPolicy, BestLinkBudgetPolicy, EpsilonGreedyPolicy
]


def build_policy(fleet: FleetSpec, seed: int) -> SelectionPolicy:
    """Instantiate the fleet's selection policy for one task seed."""
    if fleet.selection == "nearest":
        return NearestPolicy()
    if fleet.selection == "best_link_budget":
        return BestLinkBudgetPolicy()
    if fleet.selection == "epsilon_greedy":
        return EpsilonGreedyPolicy(
            epsilon=fleet.epsilon,
            learning_rate=fleet.learning_rate,
            seed=seed,
        )
    raise ConfigurationError(
        f"unknown selection policy {fleet.selection!r}"
    )
