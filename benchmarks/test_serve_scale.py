"""Fleet-scale serving bench: batched-ingest speedup, sharded p99.

Two acceptance claims for the scaled serving layer, recorded in
``benchmarks/reports/BENCH_serve_scale.json``:

* **Batched SAR ingest** — folding 10k co-resident sessions' pose
  blocks through one stacked kernel (:func:`fold_blocks`) instead of
  10k scalar ``IncrementalSar.update`` calls is >= 5x faster in the
  regime the kernel targets: coarse live-tracking grids, where
  per-session call overhead dominates the arithmetic. Finer grids are
  recorded too as the amortization curve (the win shrinks toward the
  shared trig cost, but batching must never lose). Wall-clock here,
  not virtual time — this is the one bench measuring real CPU work.
* **Sharded p99** — the M=8 consistent-hash fleet replays a high-load
  workload with p99 latency within the configured SLO. Under
  partitioned capacity isolation the virtual-time numbers are
  bit-identical across fleet sizes (pinned by the equivalence suite),
  so this doubles as the unsharded SLO check.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.localization.batched import PoseBlock, fold_blocks
from repro.localization.grid import Grid2D
from repro.localization.incremental import IncrementalSar
from repro.scenarios.compiler import generate_workload
from repro.serve import ServeConfig
from repro.serve.shard import ShardConfig, run_sharded_workload

pytestmark = [pytest.mark.bench, pytest.mark.slow]

#: Co-resident sessions in the ingest measurement (the 10k+ claim).
N_SESSIONS = 10_000
#: Timing repetitions; best-of is reported (first rep warms buffers).
REPS = 5
#: Acceptance floor on the coarse live-tracking grid.
MIN_SPEEDUP = 5.0
#: Batching must never lose, even when trig dominates (fine grids).
MIN_CURVE_SPEEDUP = 1.0

#: The serve traffic room (matches repro.serve.traffic workload grids).
ROOM = (-0.5, 4.0, 0.2, 3.0)
#: Coarse live-tracking resolution: the overhead-dominated regime the
#: batched kernel exists for, and where the 5x floor is asserted.
LIVE_RESOLUTION = 0.5
#: Coarse-to-fine amortization curve, recorded in the JSON.
CURVE_RESOLUTIONS = (0.5, 0.3, 0.15)

#: Shard fleet size for the p99-under-SLO claim.
M_SHARDS = 8
SHARD_N_TAGS = 8
SHARD_LOAD = 64.0
LATENCY_SLO_S = 0.25
SEED = 0


def _fleet(grid: Grid2D) -> list:
    return [
        IncrementalSar(frequency_hz=UHF_CENTER_FREQUENCY, grid=grid)
        for _ in range(N_SESSIONS)
    ]


def _ingest_point(resolution: float) -> dict:
    """Best-of-``REPS`` scalar vs batched ingest at one grid size."""
    grid = Grid2D(*ROOM, resolution)
    rng = np.random.default_rng(SEED)
    poses = rng.uniform(
        [ROOM[0] + 0.3, ROOM[2] + 0.1],
        [ROOM[1] - 0.3, ROOM[3] - 0.1],
        size=(N_SESSIONS, 1, 2),
    )
    channels = rng.normal(size=(N_SESSIONS, 1)) + 1j * rng.normal(
        size=(N_SESSIONS, 1)
    )
    scalar_times = []
    batched_times = []
    scalar_fleet = batched_fleet = None
    for _ in range(REPS):
        scalar_fleet = _fleet(grid)
        gc.disable()
        start = time.perf_counter()
        for session, pose, channel in zip(scalar_fleet, poses, channels):
            session.update(pose, channel)
        scalar_times.append(time.perf_counter() - start)
        gc.enable()
        batched_fleet = _fleet(grid)
        blocks = [
            PoseBlock(target=session, positions=pose, channels=channel)
            for session, pose, channel in zip(batched_fleet, poses, channels)
        ]
        gc.disable()
        start = time.perf_counter()
        fold_blocks(blocks)
        batched_times.append(time.perf_counter() - start)
        gc.enable()
    max_diff = max(
        float(np.max(np.abs(a._accumulator - b._accumulator)))
        for a, b in zip(scalar_fleet[:500], batched_fleet[:500])
    )
    scalar_s = min(scalar_times)
    batched_s = min(batched_times)
    return {
        "resolution_m": resolution,
        "grid_nodes": grid.n_points,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup_ratio": scalar_s / batched_s,
        "batched_upd_per_s": N_SESSIONS / batched_s,
        "max_accumulator_diff_abs": max_diff,
    }


@pytest.fixture(scope="module")
def scale_record():
    ingest = [_ingest_point(resolution) for resolution in CURVE_RESOLUTIONS]
    workload = generate_workload(
        "conveyor_flow_through",
        n_tags=SHARD_N_TAGS,
        seed=SEED,
        load=SHARD_LOAD,
    )
    config = ServeConfig(
        frequency_hz=UHF_CENTER_FREQUENCY,
        latency_slo_s=LATENCY_SLO_S,
        capacity_mode="partitioned",
        session_ttl_s=1e9,
    )
    sharded = run_sharded_workload(
        workload, config, ShardConfig(n_shards=M_SHARDS, seed=SEED)
    )
    return {
        "n_sessions": N_SESSIONS,
        "min_speedup": MIN_SPEEDUP,
        "live_resolution_m": LIVE_RESOLUTION,
        "shard_load": SHARD_LOAD,
        "ingest": ingest,
        "sharded": {
            "m_shards": M_SHARDS,
            "populated_shards": len(set(sharded.assignment.values())),
            "n_tags": SHARD_N_TAGS,
            "offered": sharded.offered,
            "applied": sharded.service.updates_applied,
            "throughput_per_s": sharded.throughput_per_s,
            "p99_latency_s": sharded.service.p99_latency_s,
            "latency_slo_s": LATENCY_SLO_S,
            "degraded_fraction": sharded.degraded_fraction,
            "shed_fraction": sharded.shed_fraction,
        },
    }


def test_batched_ingest_speedup_at_fleet_scale(scale_record, save_bench_json):
    by_resolution = {
        row["resolution_m"]: row for row in scale_record["ingest"]
    }
    live = by_resolution[LIVE_RESOLUTION]
    assert live["speedup_ratio"] >= MIN_SPEEDUP, (
        f"batched ingest only {live['speedup_ratio']:.2f}x at "
        f"{live['grid_nodes']} nodes (floor {MIN_SPEEDUP}x)"
    )
    for row in scale_record["ingest"]:
        assert row["speedup_ratio"] >= MIN_CURVE_SPEEDUP, (
            f"batching lost at {row['grid_nodes']} nodes: "
            f"{row['speedup_ratio']:.2f}x"
        )
    save_bench_json(
        "serve_scale",
        {
            "ingest": scale_record["ingest"],
            "sharded": scale_record["sharded"],
        },
        context={
            "n_sessions": scale_record["n_sessions"],
            "min_speedup": scale_record["min_speedup"],
            "live_resolution_m": scale_record["live_resolution_m"],
            "shard_load": scale_record["shard_load"],
        },
    )


def test_batched_ingest_is_bit_exact(scale_record):
    # The equivalence suite pins this property on small cases; the
    # bench re-checks it at fleet scale where the slab/chunk paths
    # actually engage.
    for row in scale_record["ingest"]:
        assert row["max_accumulator_diff_abs"] == 0.0


def test_sharded_p99_within_slo_at_m8(scale_record):
    sharded = scale_record["sharded"]
    assert sharded["p99_latency_s"] <= sharded["latency_slo_s"], (
        f"M={sharded['m_shards']} p99 "
        f"{sharded['p99_latency_s'] * 1e3:.1f} ms breaches the "
        f"{sharded['latency_slo_s'] * 1e3:.0f} ms SLO"
    )
    assert sharded["m_shards"] == M_SHARDS
    assert sharded["populated_shards"] > 1
    assert sharded["applied"] > 0
