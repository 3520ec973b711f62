"""Serving acceptance bench: sustained throughput under the p99 SLO.

Replays the seeded Gen2 traffic workload through the online service at
a sustainable load and asserts the virtual-time numbers: a sustained
throughput floor, p99 latency within the configured SLO, and no
degradation or shedding at that operating point. A second overload pass
pins the other side of the ladder — the service degrades rather than
violating the queue bound silently. The rendered experiment table must
be byte-stable across two runs under the same seed (virtual time means
zero timing noise), and the record lands in
``benchmarks/reports/BENCH_serve.json``.
"""

from __future__ import annotations

import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.experiments import registry, serve_bench
from repro.scenarios.compiler import generate_workload
from repro.serve import ServeConfig, run_workload

pytestmark = [pytest.mark.bench, pytest.mark.slow]

#: Operating point the service must sustain at full resolution.
SUSTAINED_LOAD = 4.0
#: Acceptance floor on applied-update throughput there (virtual upd/s).
MIN_THROUGHPUT_PER_S = 50.0
#: The latency SLO the p99 must meet at the sustained load.
LATENCY_SLO_S = 0.25

#: Load far beyond capacity, to pin the degraded rung of the ladder.
OVERLOAD = 256.0

N_TAGS = 4
SEED = 0


def _replay(load: float):
    workload = generate_workload(
        "conveyor_flow_through", n_tags=N_TAGS, seed=SEED, load=load
    )
    config = ServeConfig(
        frequency_hz=UHF_CENTER_FREQUENCY, latency_slo_s=LATENCY_SLO_S
    )
    return run_workload(workload, config)


@pytest.fixture(scope="module")
def serve_record():
    sustained = _replay(SUSTAINED_LOAD)
    overloaded = _replay(OVERLOAD)
    return {
        "sustained_load": SUSTAINED_LOAD,
        "overload": OVERLOAD,
        "min_throughput_per_s": MIN_THROUGHPUT_PER_S,
        "latency_slo_s": LATENCY_SLO_S,
        "sustained": {
            "offered": sustained.offered,
            "throughput_per_s": sustained.throughput_per_s,
            "p50_latency_s": sustained.service.p50_latency_s,
            "p99_latency_s": sustained.service.p99_latency_s,
            "shed_fraction": sustained.shed_fraction,
            "degraded_fraction": sustained.degraded_fraction,
            "max_error_m": max(sustained.errors_m.values()),
        },
        "overloaded": {
            "throughput_per_s": overloaded.throughput_per_s,
            "p99_latency_s": overloaded.service.p99_latency_s,
            "shed_fraction": overloaded.shed_fraction,
            "degraded_fraction": overloaded.degraded_fraction,
            "max_error_m": max(overloaded.errors_m.values()),
        },
    }


def test_sustained_throughput_meets_the_floor(serve_record, save_bench_json):
    sustained = serve_record["sustained"]
    assert sustained["throughput_per_s"] >= MIN_THROUGHPUT_PER_S, (
        f"only {sustained['throughput_per_s']:.1f} upd/s sustained "
        f"(floor {MIN_THROUGHPUT_PER_S})"
    )
    save_bench_json(
        "serve",
        {
            "sustained": serve_record["sustained"],
            "overloaded": serve_record["overloaded"],
        },
        context={
            "sustained_load": serve_record["sustained_load"],
            "overload": serve_record["overload"],
            "min_throughput_per_s": serve_record["min_throughput_per_s"],
            "latency_slo_s": serve_record["latency_slo_s"],
        },
    )


def test_p99_latency_within_slo_at_sustained_load(serve_record):
    sustained = serve_record["sustained"]
    assert sustained["p99_latency_s"] <= LATENCY_SLO_S, (
        f"p99 {sustained['p99_latency_s'] * 1e3:.1f} ms breaches the "
        f"{LATENCY_SLO_S * 1e3:.0f} ms SLO"
    )
    assert sustained["degraded_fraction"] == 0.0
    assert sustained["shed_fraction"] == 0.0


def test_overload_degrades_instead_of_blowing_up(serve_record):
    overloaded = serve_record["overloaded"]
    assert overloaded["degraded_fraction"] > 0.0
    # Degradation trades estimate latency, never finalize accuracy:
    # the overloaded estimates match the sustained-run quality bound.
    assert overloaded["max_error_m"] <= 0.25
    assert serve_record["sustained"]["max_error_m"] <= 0.25


def test_estimate_table_is_byte_stable(save_report):
    run_a = registry.run_experiment("serve", smoke=True)
    run_b = registry.run_experiment("serve", smoke=True)
    report_a = run_a.outputs[0].report()
    report_b = run_b.outputs[0].report()
    assert report_a == report_b
    save_report("serve.txt", run_a.outputs[0])


def test_format_result_is_pure(serve_record):
    sustained = serve_record["sustained"]
    result = serve_bench.ServeBenchResult(
        rows=[
            {
                "load": SUSTAINED_LOAD,
                "offered": float(sustained["offered"]),
                "throughput_per_s": sustained["throughput_per_s"],
                "p50_latency_s": sustained["p50_latency_s"],
                "p99_latency_s": sustained["p99_latency_s"],
                "shed_fraction": sustained["shed_fraction"],
                "degraded_fraction": sustained["degraded_fraction"],
                "mean_error_m": sustained["max_error_m"],
            }
        ]
    )
    assert serve_bench.format_result(result).report() == (
        serve_bench.format_result(result).report()
    )
