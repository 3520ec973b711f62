"""Tests for the ``python -m repro`` experiment CLI."""

import json

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.errors import GeometryError
from repro.experiments import registry


def test_list_prints_all_experiments(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out.split()
    for name in EXPERIMENTS:
        assert name in out
    assert "ablations" in out


def test_list_subcommand_matches_flag(capsys):
    assert main(["list"]) == 0
    subcommand_out = capsys.readouterr().out
    assert main(["--list"]) == 0
    assert capsys.readouterr().out == subcommand_out
    assert "fig12" in subcommand_out


def test_list_subcommand_rejects_extra_arguments(capsys):
    with pytest.raises(SystemExit):
        main(["list", "fig6"])
    assert "no further arguments" in capsys.readouterr().err


def test_single_experiment_runs(capsys):
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 6" in out
    assert "paper vs measured" in out
    assert "regenerated in" in out


def test_run_subcommand_runs_named_experiment(capsys):
    assert main(["run", "fig6"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 6" in out
    assert "regenerated in" in out


def test_canonical_names_accepted(capsys):
    assert main(["run", "fig6_heatmap"]) == 0
    assert "Fig. 6" in capsys.readouterr().out


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["fig99"])
    assert "unknown experiment" in capsys.readouterr().err


def test_run_subcommand_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig99"])
    assert "unknown experiment" in capsys.readouterr().err


def test_typed_runtime_error_exits_via_parser_error(monkeypatch, capsys):
    def trace_fails(*args, **kwargs):
        raise GeometryError("ray tracing requires distinct endpoints")

    monkeypatch.setattr(registry, "run_experiment", trace_fails)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "fig6"])
    assert exit_info.value.code == 2
    assert "error: ray tracing requires distinct endpoints" in capsys.readouterr().err


def test_trace_and_metrics_flags_print_reports(capsys, tmp_path):
    assert (
        main(
            [
                "run",
                "fig13",
                "--smoke",
                "--trace",
                "--metrics",
                "--obs-dir",
                str(tmp_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "span tree:" in out
    assert "sweep.run" in out
    assert "metrics:" in out
    assert "runtime.tasks.dispatched" in out
    trace_path = tmp_path / "fig13_aperture.trace.jsonl"
    metrics_path = tmp_path / "fig13_aperture.metrics.json"
    assert trace_path.exists() and metrics_path.exists()
    data = json.loads(metrics_path.read_text())
    assert data["counters"]["runtime.sweeps"] == 1.0
