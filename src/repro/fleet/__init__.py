"""Multi-relay fleets: trajectories, frequency plans, relay selection.

The paper's warehouse vision (§9) is a *fleet* of relay drones covering
a facility. This package runs the simulation with N relays, and every
scenario goes through it: one without a ``fleet`` block flies the
implicit fleet of one, the paper's single relay.

* :mod:`repro.fleet.plan` — :class:`FleetPlan`: per-relay realized
  trajectories plus a frequency plan validated against the daisy-chain
  shift rule and the FCC channel band, seeded via the runtime's
  ``SeedSequence`` spawn discipline.
* :mod:`repro.fleet.selection` — per-tag relay-selection policies
  (``nearest``, ``best_link_budget``, ``epsilon_greedy``) as pure,
  picklable strategy objects.
* :mod:`repro.fleet.workload` — the traffic generator behind
  :func:`repro.scenarios.compiler.generate_workload`: one merged pose
  timeline across relays, per-tag serving-relay assignment,
  co-channel interference folded into the SNR, and relay-tagged
  update events that drive session handoff in :mod:`repro.serve`.
"""

from __future__ import annotations

from repro.fleet.plan import (
    FleetPlan,
    RelayPlan,
    realize_fleet,
    scale_fleet,
    validate_fleet,
)
from repro.fleet.selection import (
    BestLinkBudgetPolicy,
    EpsilonGreedyPolicy,
    NearestPolicy,
    RelayCandidate,
    build_policy,
)
from repro.fleet.workload import generate_fleet_workload

__all__ = [
    "BestLinkBudgetPolicy",
    "EpsilonGreedyPolicy",
    "FleetPlan",
    "NearestPolicy",
    "RelayCandidate",
    "RelayPlan",
    "build_policy",
    "generate_fleet_workload",
    "realize_fleet",
    "scale_fleet",
    "validate_fleet",
]
