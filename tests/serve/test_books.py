"""The books balance: every offered update is accounted for exactly once.

The replay loop (:func:`repro.serve.traffic.replay`, and through it the
sharded replay) keeps three laws over any fault plan, seed, world and
checkpoint setting:

* every offered event is accepted, shed, rejected, or got no admission
  decision at all (its submit raised, or its session had already
  failed);
* every accepted update ends applied or lost in a kill — none is still
  pending once the run returns;
* every session ends in exactly one of ``errors_m`` and ``failures``.

Dropping any one counter from the loop breaks one of them.
"""

import dataclasses
import tempfile

from hypothesis import example, given, settings, strategies as st

from repro import faults
from repro.experiments.resilience import FAULT_CLASSES, plan_for
from repro.mobility.groundtruth import OptiTrack
from repro.runtime.cache import ResultCache
from repro.scenarios import registry
from repro.scenarios.compiler import generate_workload
from repro.serve import (
    LocalizationService,
    ServeConfig,
    ShardConfig,
    replay,
    run_sharded_workload,
)

#: A single-relay world and a two-relay world with handoffs.
WORLDS = ("conveyor_flow_through", "aisle_crossover_handoff")


def _three_tags(world):
    """The named world with its first three tags (fixed layouts too)."""
    spec = registry.get(world)
    tags = spec.tags
    if tags.kind == "fixed":
        tags = dataclasses.replace(
            tags, n_tags=3, positions_m=tags.positions_m[:3]
        )
    return dataclasses.replace(spec, tags=tags)


def _run(world, fault_class, rate, seed, cached, n_shards, cache_dir):
    spec = _three_tags(world)
    plan = plan_for(fault_class, rate)
    config = dict(
        frequency_hz=spec.radio.center_frequency_hz,
        latency_slo_s=0.05,
        reference_timeout_s=0.1,
    )
    cache = ResultCache(cache_dir) if cached else None
    with faults.engaged(plan, seed=seed):
        workload = generate_workload(
            spec,
            n_tags=3,
            seed=seed,
            load=8.0,
            grid_resolution=0.2,
            tracker=OptiTrack(),
        )
        if fault_class == "shard_kill":
            # Worker reboots exist only on the sharded service, and a
            # rebooted worker without checkpoints fails loudly by design.
            report = run_sharded_workload(
                workload,
                ServeConfig(capacity_mode="partitioned", **config),
                ShardConfig(n_shards=n_shards, seed=seed),
                cache=ResultCache(cache_dir),
                fault_plan=plan,
            )
        else:
            report = replay(
                LocalizationService(ServeConfig(**config), cache=cache),
                workload,
                contain=True,
            )
    return workload, report


@given(
    world=st.sampled_from(WORLDS),
    fault_class=st.sampled_from(FAULT_CLASSES),
    # Rates on a 1e-3 lattice: a rate below float resolution collapses
    # the outage window, which plan_for rejects as a ConfigurationError.
    rate=st.integers(0, 500).map(lambda k: k / 1000),
    seed=st.integers(0, 2**16),
    cached=st.booleans(),
    n_shards=st.integers(1, 4),
)
# A long outage fails sessions mid-stream (raising submits, then
# skipped events); a kill without checkpoints fails them at the next
# submit instead.
@example(
    world=WORLDS[0],
    fault_class="outage",
    rate=0.5,
    seed=0,
    cached=False,
    n_shards=1,
)
@example(
    world=WORLDS[1],
    fault_class="service_kill",
    rate=0.3,
    seed=1,
    cached=False,
    n_shards=1,
)
@settings(max_examples=20, deadline=None)
def test_the_books_balance(world, fault_class, rate, seed, cached, n_shards):
    with tempfile.TemporaryDirectory(prefix="books-ckpt-") as cache_dir:
        workload, report = _run(
            world, fault_class, rate, seed, cached, n_shards, cache_dir
        )
    service = report.service
    assert report.offered == len(workload.events)
    assert report.offered == (
        service.updates_accepted
        + service.updates_shed
        + service.updates_rejected
        + report.unadmitted
    )
    assert service.updates_accepted == (
        service.updates_applied + service.updates_lost
    )
    assert not set(report.errors_m) & set(report.failures)
    assert set(report.errors_m) | set(report.failures) == set(workload.grids)
