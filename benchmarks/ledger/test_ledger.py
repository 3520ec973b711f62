"""Smoke-size checks of the wall-clock ledger.

Runs every workload at smoke size, untraced and traced, in-process, and
checks the contract the benchmark promises: metric names and units
match ``BENCHMARK.json``, reports pass the shared report schema, the
traced run leaves every wrapped callable exactly as it found it, and a
wrapper target that no longer exists is reported instead of crashing.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from benchmarks.ledger import cli, compare, tracer, worker
from benchmarks.ledger.spec import (
    END_TO_END,
    LAYERS,
    PER_LAYER,
    WORKLOAD_NAMES,
    Layer,
    Target,
    contract_metrics,
)
from benchmarks.ledger.workloads import WORKLOADS
from repro.obs.reports import bench_report, canonical_json, load_report, validate_report

pytestmark = pytest.mark.bench

ROOT = Path(__file__).resolve().parents[2]

#: The grammar every metric and workload name obeys.
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

METRICS = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def _contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _originals() -> dict:
    return {
        target.name: tracer.resolve(target)[2]
        for layer in LAYERS
        for target in layer.targets
    }


def test_benchmark_json_matches_the_ledger_tables():
    contract = _contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/ledger"]
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    assert contract["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in contract_metrics(END_TO_END)
    ]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in contract_metrics(PER_LAYER)
    ]
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)


def test_committed_baseline_is_a_canonical_ledger_report():
    path = Path(__file__).with_name("BENCH_ledger.json")
    doc = load_report(path)
    assert canonical_json(doc) == path.read_text(encoding="utf-8")
    assert set(doc["metrics"]["verdicts"].values()) == {"ok"}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def smoke_report(request):
    originals = _originals()
    body = worker.run(
        WORKLOADS[request.param], seed=0, seconds=0, traced=True,
        smoke=True, min_passes=2,
    )
    body["metrics"]["end_to_end"]["setup_s"] = 1.0
    body["context"].update(nproc=1, cpu="test")
    return originals, bench_report("ledger", body["metrics"], body["context"])


def test_smoke_run_is_correct_and_schema_valid(smoke_report):
    _, report = smoke_report
    validate_report(report, name="ledger")
    metrics = report["metrics"]
    assert metrics["correct"], metrics["gate_failures"]
    assert metrics["failed"] == 0 and metrics["attempted"] > 0
    assert set(metrics["per_layer"]) == {m.name for m in PER_LAYER}
    assert set(metrics["end_to_end"]) <= {m.name for m in END_TO_END}
    assert metrics["absent_targets"] == []


def test_summary_lines_carry_exactly_the_contract_metrics(smoke_report):
    _, report = smoke_report
    contract = _contract()
    traced = json.loads(cli.summary_line(report))
    assert set(traced) == {"correct", "attempted", "failed", "metrics"}
    assert [
        {"name": name, "unit": value["unit"], "better": METRICS[name].better}
        for name, value in traced["metrics"].items()
    ] == contract["per_layer"]
    untraced = dict(report, metrics=dict(report["metrics"]))
    del untraced["metrics"]["per_layer"]
    line = json.loads(cli.summary_line(untraced))
    assert list(line["metrics"]) == [m["name"] for m in contract["end_to_end"]]


def test_traced_run_restores_every_wrapped_callable(smoke_report):
    originals, _ = smoke_report
    after = _originals()
    assert all(after[name] is original for name, original in originals.items())


def test_missing_wrapper_target_reports_absent():
    ghost = Target("repro.sim.events", "no_such_function")
    gone = Target("repro.no_such_module", "anything")
    layers = tuple(
        Layer(layer.name, (ghost, gone), layer.moves) if layer.name == "gen2" else layer
        for layer in LAYERS
    )
    body = worker.run(
        WORKLOADS["dense_inventory"], seed=0, seconds=0, traced=True,
        smoke=True, min_passes=1, layers=layers,
    )
    metrics = body["metrics"]
    assert metrics["absent_targets"] == [ghost.name, gone.name]
    assert metrics["per_layer"]["gen2.calls"] == 0
    assert metrics["correct"]


def test_compare_verdicts():
    bounded = METRICS["fix_p50_ms"]
    steady = {seed: 10.0 + 0.01 * seed for seed in range(10)}
    assert compare.verdict(bounded, steady, steady) == "ok"
    slower = {seed: value * 1.5 for seed, value in steady.items()}
    assert compare.verdict(bounded, steady, slower) == "regressed"
    noisy = {seed: 10.0 * (1 + seed % 2) for seed in range(10)}
    assert compare.verdict(bounded, noisy, steady) == "unresolved"
    exact = METRICS["median_error_m"]
    assert compare.verdict(exact, steady, dict(steady)) == "ok"
    assert compare.verdict(exact, steady, {**steady, 3: 0.0}) == "regressed"
    assert compare.verdict(exact, steady, {99: 10.0}) == "unresolved"
