"""Gate edge cases: bootstrap, boundary, improvement, corruption.

Every branch the CI job can hit is pinned here, including the exact
threshold semantics (a regression of *exactly* the tolerance passes;
one epsilon more fails) and the failure message contract (the worst
metric and its percentage are named in the first line).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import GateError
from repro.obs.reports import canonical_json
from repro.soak import gate, trend


def _entry(
    throughput: float = 300.0,
    p99_ms: float = 2.0,
    error_m: float = 0.04,
    seed: int = 0,
) -> dict:
    return {
        "schema_version": 1,
        "key": {"scenario": "warehouse_twin_aisle", "seed": seed},
        "counts": {"epochs": 3},
        "metrics": {
            "throughput_per_s": throughput,
            "p99_latency_ms": p99_ms,
            "mean_error_m": error_m,
        },
    }


def _trend_file(tmp_path, *entry_list):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "SOAK_TREND.json"
    doc = trend.new_trend()
    doc["entries"] = list(entry_list)
    path.write_text(canonical_json(doc), encoding="utf-8")
    return path


def test_missing_trend_file_bootstraps(tmp_path):
    report = gate.run_gate(tmp_path / "SOAK_TREND.json")
    assert report.passed and report.bootstrap
    assert "bootstrap" in report.reason


def test_single_entry_bootstraps(tmp_path):
    path = _trend_file(tmp_path, _entry())
    report = gate.run_gate(path)
    assert report.passed and report.bootstrap


def test_unmatched_key_bootstraps(tmp_path):
    path = _trend_file(tmp_path, _entry(seed=0), _entry(seed=1))
    report = gate.run_gate(path)
    assert report.passed and report.bootstrap
    assert '"seed": 1' in report.reason


def test_within_tolerance_passes(tmp_path):
    path = _trend_file(tmp_path, _entry(), _entry(p99_ms=2.1))
    report = gate.run_gate(path)
    assert report.passed and not report.bootstrap


def test_regression_fails_naming_metric_and_percentage(tmp_path):
    path = _trend_file(tmp_path, _entry(), _entry(p99_ms=2.6))
    report = gate.run_gate(path)
    assert not report.passed
    assert "p99_latency_ms" in report.reason
    assert "30.0%" in report.reason
    assert report.failures[0].metric == "p99_latency_ms"


def test_throughput_drop_fails_in_its_direction(tmp_path):
    path = _trend_file(tmp_path, _entry(), _entry(throughput=150.0))
    report = gate.run_gate(path)
    assert not report.passed
    assert "throughput_per_s" in report.reason
    assert "50.0%" in report.reason


def test_improvement_never_fails(tmp_path):
    better = _entry(throughput=900.0, p99_ms=0.5, error_m=0.001)
    path = _trend_file(tmp_path, _entry(), better)
    report = gate.run_gate(path)
    assert report.passed
    assert all(check.regression_fraction <= 0 for check in report.checks)


def test_exact_threshold_boundary_passes(tmp_path):
    # p99 2.0 -> 2.5 ms is exactly a 25% regression (binary-exact
    # arithmetic, so the comparison really is at the boundary): a
    # tolerance of exactly 0.25 passes — strictly-greater fails —
    path = _trend_file(tmp_path, _entry(), _entry(p99_ms=2.5))
    report = gate.run_gate(path, tolerances={"p99_latency_ms": 0.25})
    assert report.passed, report.render()
    # ... and any tolerance strictly below the regression fails.
    report = gate.run_gate(path, tolerances={"p99_latency_ms": 0.2499})
    assert not report.passed


def test_explicit_current_entry_gates_against_the_tail(tmp_path):
    path = _trend_file(tmp_path, _entry())
    degraded = _entry(p99_ms=2.6)
    report = gate.run_gate(path, current=degraded)
    assert not report.passed
    assert "30.0%" in report.reason


def test_custom_tolerance_is_honored(tmp_path):
    path = _trend_file(tmp_path, _entry(), _entry(p99_ms=2.6))
    report = gate.run_gate(
        path, tolerances={"p99_latency_ms": 0.5}
    )
    assert report.passed


def test_negative_tolerance_is_a_gate_error(tmp_path):
    path = _trend_file(tmp_path, _entry(), _entry())
    with pytest.raises(GateError, match="non-negative"):
        gate.run_gate(path, tolerances={"p99_latency_ms": -0.1})


def test_missing_watched_metric_is_a_gate_error(tmp_path):
    incomplete = _entry()
    del incomplete["metrics"]["p99_latency_ms"]
    path = _trend_file(tmp_path, _entry(), incomplete)
    with pytest.raises(GateError, match="p99_latency_ms"):
        gate.run_gate(path)


def test_cli_pass_fail_and_corrupt_exit_codes(tmp_path, capsys):
    path = _trend_file(tmp_path, _entry(), _entry(p99_ms=2.05))
    assert gate.main(["--trend", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out

    baseline_only = _trend_file(tmp_path / "solo", _entry())
    degraded = tmp_path / "degraded.json"
    degraded.write_text(json.dumps(_entry(p99_ms=2.6)), encoding="utf-8")
    assert (
        gate.main(
            ["--trend", str(baseline_only), "--current", str(degraded)]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "p99_latency_ms" in out and "30.0%" in out

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"entries": [', encoding="utf-8")
    assert gate.main(["--trend", str(corrupt)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_corrupt_entry_names_its_index(tmp_path, capsys):
    path = tmp_path / "SOAK_TREND.json"
    doc = trend.new_trend()
    doc["entries"] = [_entry(), {"key": {}}]
    path.write_text(canonical_json(doc), encoding="utf-8")
    assert gate.main(["--trend", str(path)]) == 2
    assert "entry 1" in capsys.readouterr().err


def test_cli_missing_current_file_is_exit_2(tmp_path, capsys):
    path = _trend_file(tmp_path, _entry())
    code = gate.main(
        ["--trend", str(path), "--current", str(tmp_path / "nope.json")]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_cli_undecodable_trend_or_current_is_exit_2(tmp_path, capsys):
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    good = _trend_file(tmp_path, _entry())
    assert gate.main(["--trend", str(undecodable)]) == 2
    assert (
        gate.main(["--trend", str(good), "--current", str(undecodable)]) == 2
    )
    assert capsys.readouterr().err.count("not valid JSON") == 2
