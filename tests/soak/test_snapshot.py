"""Property tests for soak snapshots and their reduction.

The hypothesis suite pins the two contracts everything downstream
leans on: :func:`summarize_snapshots` is order-insensitive (any
permutation of the same snapshots folds to a bitwise-identical
summary — what makes the trend file independent of sweep backend and
scheduling), and the snapshot payload round-trips losslessly through
``codec.to_dict``/``codec.from_dict`` (what rides the process-pool
boundary).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.errors import ConfigurationError
from repro.soak.snapshot import SoakSnapshot, summarize_snapshots

finite = st.floats(
    min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False
)
counts = st.integers(min_value=0, max_value=10_000)
samples = st.lists(finite, min_size=0, max_size=30)


@st.composite
def snapshots(draw, epoch: int) -> SoakSnapshot:
    offered = draw(counts)
    applied = draw(st.integers(min_value=0, max_value=offered))
    return SoakSnapshot(
        epoch=epoch,
        start_s=epoch * 600.0,
        interval_s=600.0,
        sessions=draw(counts),
        fixes=draw(counts),
        offered=offered,
        applied=applied,
        degraded=draw(counts),
        shed=draw(counts),
        rejected=draw(counts),
        lost=draw(counts),
        handoffs=draw(counts),
        recoveries=draw(counts),
        injected=draw(counts),
        busy_s=draw(finite),
        latency_samples_s=tuple(draw(samples)),
        error_samples_m=tuple(draw(samples)),
    )


@st.composite
def snapshot_runs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return [draw(snapshots(epoch)) for epoch in range(n)]


@given(run=snapshot_runs(), data=st.data())
@settings(max_examples=50)
def test_summary_is_order_insensitive(run, data):
    shuffled = data.draw(st.permutations(run))
    assert summarize_snapshots(shuffled) == summarize_snapshots(run)


@given(run=snapshot_runs())
@settings(max_examples=50)
def test_snapshot_round_trips_losslessly(run):
    for snapshot in run:
        payload = codec.to_dict(snapshot)
        assert codec.from_dict(SoakSnapshot, payload, "soak_snapshot") == snapshot


@given(snapshot=snapshots(epoch=0))
@settings(max_examples=25)
def test_samples_are_stored_sorted(snapshot):
    assert snapshot.latency_samples_s == tuple(
        sorted(snapshot.latency_samples_s)
    )
    assert snapshot.error_samples_m == tuple(
        sorted(snapshot.error_samples_m)
    )


def test_empty_reduction_is_rejected():
    with pytest.raises(ConfigurationError, match="zero soak snapshots"):
        summarize_snapshots([])


def test_duplicate_epochs_are_rejected():
    snapshot = SoakSnapshot(
        epoch=0,
        start_s=0.0,
        interval_s=600.0,
        sessions=1,
        fixes=1,
        offered=1,
        applied=1,
        degraded=0,
        shed=0,
        rejected=0,
        lost=0,
        handoffs=0,
        recoveries=0,
        injected=0,
        busy_s=1.0,
        latency_samples_s=(0.01,),
        error_samples_m=(0.1,),
    )
    with pytest.raises(ConfigurationError, match="duplicate snapshot"):
        summarize_snapshots([snapshot, snapshot])


def test_missing_payload_field_is_loud():
    snapshot = SoakSnapshot(
        epoch=0,
        start_s=0.0,
        interval_s=600.0,
        sessions=1,
        fixes=1,
        offered=1,
        applied=1,
        degraded=0,
        shed=0,
        rejected=0,
        lost=0,
        handoffs=0,
        recoveries=0,
        injected=0,
        busy_s=1.0,
        latency_samples_s=(),
        error_samples_m=(),
    )
    payload = codec.to_dict(snapshot)
    del payload["busy_s"]
    with pytest.raises(ConfigurationError, match="busy_s"):
        codec.from_dict(SoakSnapshot, payload, "soak_snapshot")


def test_summary_numbers_are_the_pooled_population():
    first = SoakSnapshot(
        epoch=0,
        start_s=0.0,
        interval_s=600.0,
        sessions=2,
        fixes=2,
        offered=10,
        applied=8,
        degraded=2,
        shed=1,
        rejected=0,
        lost=0,
        handoffs=1,
        recoveries=0,
        injected=3,
        busy_s=2.0,
        latency_samples_s=(0.001, 0.003),
        error_samples_m=(0.1,),
    )
    second = SoakSnapshot(
        epoch=1,
        start_s=600.0,
        interval_s=600.0,
        sessions=2,
        fixes=1,
        offered=10,
        applied=8,
        degraded=0,
        shed=0,
        rejected=0,
        lost=0,
        handoffs=0,
        recoveries=2,
        injected=1,
        busy_s=2.0,
        latency_samples_s=(0.002,),
        error_samples_m=(0.3,),
    )
    summary = summarize_snapshots([first, second])
    assert summary.epochs == 2
    assert summary.offered == 20
    assert summary.applied == 16
    assert summary.throughput_per_s == pytest.approx(16 / 4.0)
    assert summary.virtual_hours == pytest.approx(1200.0 / 3600.0)
    assert summary.mean_error_m == pytest.approx(0.2)
    assert summary.failure_fraction == pytest.approx(0.25)
    # p50 over the pooled {1, 2, 3} ms population, not a mean of
    # per-interval medians.
    assert summary.p50_latency_ms == pytest.approx(2.0)
