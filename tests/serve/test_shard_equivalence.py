"""The sharding acceptance bar: sharded == unsharded, bit for bit.

Two layers of equivalence are pinned here:

1. **Kernel layer** (hypothesis): the stacked cross-session fold
   (:func:`repro.localization.batched.fold_blocks`) matches per-block
   scalar ``update`` to 1e-12 under arbitrary block splits, and — the
   stronger, *exact* property — an accumulator's bits never depend on
   which other blocks were co-batched into the same kernel call.
2. **Service layer**: replaying one workload through ``M`` consistent-
   hash shards (serial or process backend, ``M`` in 1/2/4/8) under
   partitioned capacity isolation reproduces the unsharded service's
   fixes, errors, degradation-ladder logs, and sample-pooled latency
   report exactly, and the merged metrics agree order-insensitively.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import ConfigurationError
from repro.localization import Grid2D, IncrementalSar
from repro.localization.batched import PoseBlock, fold_blocks
from repro.obs import MetricsRegistry
from repro.obs import metrics as metrics_mod
from repro.scenarios.compiler import generate_workload
from repro.serve import (
    ServeConfig,
    ShardConfig,
    run_sharded_workload,
)

F = UHF_CENTER_FREQUENCY

#: Service knobs shared by every service-layer case: partitioned
#: isolation (required for sharding), an effectively infinite TTL so
#: eviction timing never enters, and a service rate low enough that
#: the compressed workload walks sessions down the degradation ladder.
PARTITIONED = dict(
    frequency_hz=F,
    capacity_mode="partitioned",
    session_ttl_s=1e9,
    service_rate_nodes_per_s=2.0e5,
    latency_slo_s=0.05,
)


def small_grid():
    return Grid2D(-1.0, 1.0, -1.0, 1.0, 0.4)


# -- kernel layer ----------------------------------------------------------------


poses = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.tuples(
                st.floats(-3.0, 3.0, allow_nan=False),
                st.floats(-3.0, 3.0, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        ),
        st.lists(
            st.complex_numbers(
                min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False
            ),
            min_size=n,
            max_size=n,
        ),
    )
)


def _split(positions, channels, cuts):
    """Cut one pose stream into contiguous blocks at ``cuts``."""
    edges = [0] + sorted(set(c % len(positions) for c in cuts)) + [len(positions)]
    edges = sorted(set(edges))
    return [
        (positions[a:b], channels[a:b])
        for a, b in zip(edges[:-1], edges[1:])
        if b > a
    ]


@given(data=poses, cuts=st.lists(st.integers(0, 23), max_size=4))
@settings(max_examples=25, deadline=None)
def test_batched_fold_matches_scalar_updates(data, cuts):
    """fold_blocks over arbitrary splits ~ per-block update (1e-12)."""
    positions, channels = np.asarray(data[0]), np.asarray(data[1])
    blocks = _split(positions, channels, cuts)
    scalar = IncrementalSar(F, small_grid())
    for block_positions, block_channels in blocks:
        scalar.update(block_positions, block_channels)
    batched = IncrementalSar(F, small_grid())
    fold_blocks(
        [PoseBlock(batched, p, c) for p, c in blocks]
    )
    assert batched.n_poses == scalar.n_poses
    np.testing.assert_allclose(
        batched._accumulator,
        scalar._accumulator,
        rtol=0.0,
        atol=1e-12 * max(1, len(positions)),
    )


@given(
    data=poses,
    other=poses,
    n_neighbours=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_co_batched_blocks_never_change_each_others_bits(
    data, other, n_neighbours
):
    """Stacking-invariance, the exact property sharding rests on.

    Folding a block alone and folding it co-batched with arbitrary
    other sessions' blocks must leave *identical bits* in its target
    accumulator — np.array_equal, not allclose.
    """
    positions, channels = np.asarray(data[0]), np.asarray(data[1])
    alone = IncrementalSar(F, small_grid())
    fold_blocks([PoseBlock(alone, positions, channels)])
    crowded = IncrementalSar(F, small_grid())
    neighbours = [
        PoseBlock(
            IncrementalSar(F, small_grid()),
            np.asarray(other[0]),
            np.asarray(other[1]),
        )
        for _ in range(n_neighbours)
    ]
    fold_blocks(
        neighbours[: n_neighbours // 2]
        + [PoseBlock(crowded, positions, channels)]
        + neighbours[n_neighbours // 2 :]
    )
    assert np.array_equal(alone._accumulator, crowded._accumulator)
    assert alone.n_poses == crowded.n_poses


def test_fold_blocks_groups_mixed_grids():
    """Blocks with different grids fold correctly in one call."""
    rng = np.random.default_rng(7)
    coarse = IncrementalSar(F, small_grid())
    fine = IncrementalSar(F, Grid2D(-1.0, 1.0, -1.0, 1.0, 0.2))
    p1, c1 = rng.uniform(-1, 1, (5, 2)), rng.normal(size=5) + 1j
    p2, c2 = rng.uniform(-1, 1, (3, 2)), rng.normal(size=3) + 1j
    projected = fold_blocks(
        [PoseBlock(coarse, p1, c1), PoseBlock(fine, p2, c2)]
    )
    assert projected == 5 * coarse.n_nodes + 3 * fine.n_nodes
    reference = IncrementalSar(F, small_grid())
    reference.update(p1, c1)
    np.testing.assert_allclose(
        coarse._accumulator, reference._accumulator, atol=1e-12
    )


def test_fold_blocks_empty_and_degenerate():
    assert fold_blocks([]) == 0
    acc = IncrementalSar(F, small_grid())
    assert (
        fold_blocks(
            [PoseBlock(acc, np.empty((0, 2)), np.empty(0, complex))]
        )
        == 0
    )
    assert acc.n_poses == 0


# -- service layer ---------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    """One compressed Gen2-MAC workload, heavy enough to degrade."""
    return generate_workload(
        "conveyor_flow_through", n_tags=6, seed=11, load=24.0, grid_resolution=0.15
    )


@pytest.fixture(scope="module")
def unsharded(workload):
    """The M=1 (unsharded serial service) reference replay."""
    config = ServeConfig(**PARTITIONED)
    registry = MetricsRegistry()
    with metrics_mod.activated(registry):
        report = run_sharded_workload(
            workload, config, ShardConfig(n_shards=1)
        )
    return report, registry


def _assert_equivalent(reference, candidate):
    """Byte-level agreement on everything user-visible."""
    assert candidate.estimates.keys() == reference.estimates.keys()
    for session_id, fix in reference.estimates.items():
        assert np.array_equal(candidate.estimates[session_id], fix)
    assert candidate.errors_m == reference.errors_m
    assert candidate.ladders == reference.ladders
    assert candidate.service == reference.service
    assert candidate.session_loss == reference.session_loss


def _assert_metrics_merge(reference: MetricsRegistry, merged: MetricsRegistry):
    """Order-insensitive metrics agreement across the shard merge.

    Counters are integer-valued float adds (exact); histogram counts,
    bucket shapes, and extrema are order-free; only the sequential
    float ``total`` picks up association error. Gauges are last-write
    and legitimately per-shard, so they are not compared.
    """
    drop = {"serve.queue_depth", "serve.backlog_s", "serve.sessions.active"}
    ref_counters = dict(reference.counters)
    got_counters = dict(merged.counters)
    # The batched fold runs once per *round*, so shards (fewer rounds
    # each, same total) legitimately count a different number of fold
    # calls; everything the user reads about must still agree.
    ref_counters.pop("localization.sar.batched_folds", None)
    got_counters.pop("localization.sar.batched_folds", None)
    assert got_counters == ref_counters
    assert merged.histograms.keys() == reference.histograms.keys()
    for name, state in reference.histograms.items():
        if name in drop:
            continue
        other = merged.histograms[name]
        assert other.count == state.count
        assert other.min_value == state.min_value
        assert other.max_value == state.max_value
        assert other.buckets == state.buckets
        assert other.total == pytest.approx(state.total, rel=1e-9)


@pytest.mark.parametrize("n_shards", [2, 4, 8])
def test_sharded_serial_matches_unsharded(workload, unsharded, n_shards):
    reference, ref_registry = unsharded
    registry = MetricsRegistry()
    config = ServeConfig(**PARTITIONED)
    with metrics_mod.activated(registry):
        candidate = run_sharded_workload(
            workload, config, ShardConfig(n_shards=n_shards)
        )
    assert candidate.n_shards == n_shards
    _assert_equivalent(reference, candidate)
    _assert_metrics_merge(ref_registry, registry)


@pytest.mark.slow
def test_sharded_process_matches_unsharded(workload, unsharded):
    reference, _ = unsharded
    config = ServeConfig(**PARTITIONED)
    candidate = run_sharded_workload(
        workload,
        config,
        ShardConfig(n_shards=4, backend="process", max_workers=2),
    )
    _assert_equivalent(reference, candidate)


def test_workload_actually_degrades(unsharded):
    """The equivalence above must cover the ladder, not just FULL mode."""
    reference, _ = unsharded
    assert reference.service.degraded_batches > 0
    assert any(
        any(mode == "degraded" for _, mode in ladder)
        for ladder in reference.ladders.values()
    )


def test_sharding_requires_partitioned_isolation(workload):
    config = ServeConfig(frequency_hz=F)
    with pytest.raises(ConfigurationError, match="partitioned"):
        run_sharded_workload(workload, config, ShardConfig(n_shards=2))


# -- fleet workloads -------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_workload():
    """A two-relay fleet stream whose boundary tags hand off."""
    from repro.fleet.plan import scale_fleet
    from repro.scenarios import registry as scenario_registry

    spec = scale_fleet(scenario_registry.get("conveyor_flow_through"), 2)
    return generate_workload(
        spec, n_tags=4, seed=3, load=16.0, grid_resolution=0.15
    )


@pytest.fixture(scope="module")
def fleet_unsharded(fleet_workload):
    config = ServeConfig(**PARTITIONED)
    report = run_sharded_workload(
        fleet_workload, config, ShardConfig(n_shards=1)
    )
    assert report.service.handoffs > 0  # the case exists to cover these
    return report


@pytest.mark.parametrize("n_shards", [2, 4])
def test_fleet_sharded_serial_matches_unsharded(
    fleet_workload, fleet_unsharded, n_shards
):
    """Handoff bookkeeping (segment archives, handoff counters and
    latency samples) must survive sharding bit for bit."""
    config = ServeConfig(**PARTITIONED)
    candidate = run_sharded_workload(
        fleet_workload, config, ShardConfig(n_shards=n_shards)
    )
    _assert_equivalent(fleet_unsharded, candidate)
    assert candidate.service.handoffs == fleet_unsharded.service.handoffs


@pytest.mark.slow
def test_fleet_sharded_process_matches_unsharded(
    fleet_workload, fleet_unsharded
):
    config = ServeConfig(**PARTITIONED)
    candidate = run_sharded_workload(
        fleet_workload,
        config,
        ShardConfig(n_shards=4, backend="process", max_workers=2),
    )
    _assert_equivalent(fleet_unsharded, candidate)
    assert candidate.service.handoffs == fleet_unsharded.service.handoffs
