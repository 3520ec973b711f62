"""Relay-selection policies: determinism, picklability, and the
generator rule that only a real choice consults a policy."""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.fleet import workload as fleet_workload
from repro.fleet.plan import scale_fleet
from repro.fleet.selection import (
    BestLinkBudgetPolicy,
    EpsilonGreedyPolicy,
    NearestPolicy,
    RelayCandidate,
    build_policy,
)
from repro.scenarios import registry
from repro.scenarios.compiler import generate_workload
from repro.scenarios.spec import FleetSpec, RelaySpec


def candidate(index, distance, budget):
    return RelayCandidate(
        index=index,
        name=f"relay-{index:02d}",
        distance_m=distance,
        link_budget_db=budget,
    )


NEAR = candidate(0, 1.0, -60.0)
FAR = candidate(1, 3.0, -50.0)


def two_relay_fleet(selection: str) -> FleetSpec:
    return FleetSpec(
        relays=(RelaySpec(name="a"), RelaySpec(name="b")),
        selection=selection,
    )


class TestStatelessPolicies:
    def test_nearest_picks_shortest_distance(self):
        assert NearestPolicy().select("t", [NEAR, FAR]) == 0

    def test_best_link_budget_picks_strongest(self):
        assert BestLinkBudgetPolicy().select("t", [NEAR, FAR]) == 1

    def test_ties_break_to_lowest_index(self):
        tied = [candidate(2, 1.0, -55.0), candidate(0, 1.0, -55.0)]
        assert NearestPolicy().select("t", tied) == 0
        assert BestLinkBudgetPolicy().select("t", tied) == 0

    @pytest.mark.parametrize(
        "policy", [NearestPolicy(), BestLinkBudgetPolicy()]
    )
    def test_empty_candidates_rejected(self, policy):
        with pytest.raises(ConfigurationError):
            policy.select("t", [])


class TestEpsilonGreedy:
    def test_same_seed_same_exploration_sequence(self):
        first = EpsilonGreedyPolicy(1.0, 0.5, seed=3)
        second = EpsilonGreedyPolicy(1.0, 0.5, seed=3)
        picks = [first.select("t", [NEAR, FAR]) for _ in range(20)]
        assert [second.select("t", [NEAR, FAR]) for _ in range(20)] == picks
        # Fully exploratory: both relays actually get explored.
        assert set(picks) == {0, 1}

    def test_exploit_before_feedback_matches_link_budget(self):
        policy = EpsilonGreedyPolicy(0.0, 0.5, seed=0)
        assert policy.select("t", [NEAR, FAR]) == (
            BestLinkBudgetPolicy().select("t", [NEAR, FAR])
        )

    def test_rewards_steer_the_exploit_choice(self):
        policy = EpsilonGreedyPolicy(0.0, 1.0, seed=0)
        # Relay 0 has the weaker link budget, but it actually reads.
        policy.observe("t", 0, 1.0)
        policy.observe("t", 1, 0.0)
        assert policy.select("t", [NEAR, FAR]) == 0
        # Learning is per tag: another tag still exploits link budget.
        assert policy.select("other", [NEAR, FAR]) == 1

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ConfigurationError):
            EpsilonGreedyPolicy(1.5, 0.5, seed=0)
        with pytest.raises(ConfigurationError):
            EpsilonGreedyPolicy(0.1, 0.0, seed=0)


class RecordingPolicy:
    """Wraps a real policy and records how many candidates each
    ``select`` call saw."""

    def __init__(self, inner):
        self.inner = inner
        self.sizes = []

    def select(self, tag_id, candidates):
        self.sizes.append(len(candidates))
        return self.inner.select(tag_id, candidates)

    def observe(self, tag_id, relay_index, reward):
        self.inner.observe(tag_id, relay_index, reward)


class TestGeneratorConsultsPolicy:
    """The generator serves a lone candidate itself: a policy sees only
    real choices, so an epsilon-greedy fleet draws exploration only
    when two or more relays power a tag."""

    def _recorded(self, monkeypatch, spec):
        policies = []

        def recording_policy(fleet, seed):
            policies.append(RecordingPolicy(build_policy(fleet, seed)))
            return policies[-1]

        monkeypatch.setattr(fleet_workload, "build_policy", recording_policy)
        # A 1.5 m powering range leaves tags that only one of two
        # overlapping relays reaches, next to tags both reach.
        generate_workload(
            spec, n_tags=3, seed=0, load=8.0, powering_range_m=1.5
        )
        (policy,) = policies
        return policy.sizes

    @staticmethod
    def _greedy(n_relays):
        spec = scale_fleet(registry.get("conveyor_flow_through"), n_relays)
        return replace(
            spec, fleet=replace(spec.fleet, selection="epsilon_greedy")
        )

    def test_select_sees_at_least_two_candidates(self, monkeypatch):
        sizes = self._recorded(monkeypatch, self._greedy(2))
        assert sizes, "the overlapping segments must force real choices"
        assert min(sizes) >= 2

    @pytest.mark.parametrize(
        "declared", [False, True], ids=["plain", "declared"]
    )
    def test_fleet_of_one_never_selects(self, monkeypatch, declared):
        spec = (
            self._greedy(1)
            if declared
            else registry.get("conveyor_flow_through")
        )
        assert self._recorded(monkeypatch, spec) == []


class TestBuildPolicy:
    @pytest.mark.parametrize(
        "selection,expected",
        [
            ("nearest", NearestPolicy),
            ("best_link_budget", BestLinkBudgetPolicy),
            ("epsilon_greedy", EpsilonGreedyPolicy),
        ],
    )
    def test_dispatch(self, selection, expected):
        policy = build_policy(two_relay_fleet(selection), seed=0)
        assert isinstance(policy, expected)

    @pytest.mark.parametrize(
        "selection", ["nearest", "best_link_budget", "epsilon_greedy"]
    )
    def test_policies_are_picklable(self, selection):
        # Policies ride inside sweep-task closures to process-pool
        # workers; a clone must behave identically.
        policy = build_policy(two_relay_fleet(selection), seed=9)
        clone = pickle.loads(pickle.dumps(policy))
        picks = [policy.select("t", [NEAR, FAR]) for _ in range(8)]
        assert [clone.select("t", [NEAR, FAR]) for _ in range(8)] == picks
