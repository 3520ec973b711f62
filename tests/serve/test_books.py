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

Dropping any one counter from the loop breaks one of them. The first
two also hold on the merged report of a
:class:`~repro.serve.shard.ShardedLocalizationService` driven call by
call, the way the wall-clock ledger's closed loop drives it.
"""

import dataclasses
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import faults
from repro.errors import RFlyError
from repro.experiments.resilience import FAULT_CLASSES, plan_for
from repro.mobility.groundtruth import OptiTrack
from repro.obs import metrics
from repro.runtime.cache import ResultCache
from repro.scenarios import registry
from repro.scenarios.compiler import generate_workload
from repro.serve import (
    Admission,
    LocalizationService,
    ServeConfig,
    ShardConfig,
    ShardedLocalizationService,
    replay,
    run_sharded_workload,
)
from repro.soak.driver import fault_plan_for

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
    rate=st.floats(0.0, 0.5),
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


@pytest.mark.parametrize("rate", [7.3e-224, 1e-17])
def test_an_outage_too_short_to_represent_is_no_outage(rate):
    # 150 + rate * 600 rounds to 150: the call window would be empty.
    assert plan_for("outage", rate) == faults.FaultPlan()


def _facade_plan(faulted, n_shards, reboot_step):
    """The calm soak profile's stream faults plus one fleet reboot.

    Every worker reboots at scheduling round ``reboot_step`` (the
    ``serve.shard`` hook is called once per worker per round), so every
    live session is checkpointed and dropped, and its next touch
    restores it.
    """
    if not faulted:
        return faults.FaultPlan()
    calm = fault_plan_for("calm")
    reboot = faults.FaultSpec(
        "serve.shard",
        "reboot",
        trigger=faults.Trigger(
            kind="call_window",
            start=reboot_step * n_shards,
            stop=(reboot_step + 1) * n_shards,
        ),
    )
    return faults.FaultPlan(
        tuple(s for s in calm.specs if s.site != "serve.shard") + (reboot,)
    )


@given(
    world=st.sampled_from(WORLDS),
    seed=st.integers(0, 2**16),
    n_shards=st.integers(1, 4),
    faulted=st.booleans(),
    reboot_step=st.integers(0, 100),
)
@example(world=WORLDS[1], seed=0, n_shards=3, faulted=True, reboot_step=40)
@settings(max_examples=12, deadline=None)
def test_the_facade_books_balance(world, seed, n_shards, faulted, reboot_step):
    spec = _three_tags(world)
    observed = metrics.MetricsRegistry()
    with tempfile.TemporaryDirectory(
        prefix="books-ckpt-"
    ) as cache_dir, metrics.activated(observed), faults.engaged(
        _facade_plan(faulted, n_shards, reboot_step), seed=seed
    ):
        workload = generate_workload(
            spec,
            n_tags=3,
            seed=seed,
            load=8.0,
            grid_resolution=0.2,
            tracker=OptiTrack(),
        )
        facade = ShardedLocalizationService(
            ServeConfig(
                frequency_hz=spec.radio.center_frequency_hz,
                capacity_mode="partitioned",
                session_ttl_s=1e9,
            ),
            ShardConfig(n_shards=n_shards, seed=seed),
            cache=ResultCache(cache_dir),
        )
        for session_id in sorted(workload.grids):
            facade.open_session(
                session_id, workload.grids[session_id], now_s=0.0
            )
        accepted = dict.fromkeys(workload.grids, 0)
        unadmitted = 0
        for event in workload.events:
            try:
                admission = facade.submit(
                    event.session_id, event.measurement, now_s=event.time_s
                )
                facade.step()
            except RFlyError:
                unadmitted += 1
                continue
            if admission is Admission.ACCEPTED:
                accepted[event.session_id] += 1
        facade.drain()
        for session_id in sorted(workload.grids):
            if accepted[session_id] >= 2:
                try:
                    facade.finalize(session_id, now_s=workload.duration_s)
                except RFlyError:
                    pass
        service = facade.report()
    assert len(workload.events) == (
        service.updates_accepted
        + service.updates_shed
        + service.updates_rejected
        + unadmitted
    )
    assert service.updates_accepted == (
        service.updates_applied + service.updates_lost
    )
    if faulted:
        counters = observed.snapshot()["counters"]
        assert counters.get("serve.sessions.restored", 0) > 0
