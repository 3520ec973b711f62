"""The soak experiment's CLI surface: knobs, trend append, purity.

Pins the wiring the CI job depends on: ``--hours``/``--snapshot-every``/
``--shards`` reach ``build_tasks`` (and are rejected on experiments
they don't apply to), ``main`` appends exactly one trend entry per
distinct run via the spec's ``post_run`` hook, ``--no-trend`` and
``--trend-file`` are honored, and the side-effect-free
``registry.run_experiment`` path the golden suite uses never touches the
trend file.
"""

from __future__ import annotations

import pytest

from repro.experiments import cli, registry
from repro.runtime import RuntimeConfig
from repro.soak import trend
from repro.soak.driver import SoakConfig


def test_soak_is_registered_with_a_post_run_hook():
    spec = registry.get("soak")
    assert spec.alias == "soak"
    assert spec.post_run is not None
    assert spec.scenario == "warehouse_twin_aisle"
    assert "soak" in registry.aliases()


def test_knob_flags_reach_build_tasks():
    parser = cli.build_parser()
    args = parser.parse_args(
        ["run", "soak", "--hours", "1.0", "--snapshot-every", "1200",
         "--shards", "4"]
    )
    overrides = cli.knob_overrides(parser, registry.get("soak"), args)
    assert overrides == {
        "hours": 1.0,
        "snapshot_every_s": 1200.0,
        "shards": 4,
    }
    config = SoakConfig(hours=1.0, snapshot_every_s=1200.0, shards=4)
    assert config.n_epochs == 3


def test_knobs_are_rejected_on_experiments_without_them(capsys):
    parser = cli.build_parser()
    args = parser.parse_args(["run", "fig4", "--hours", "1.0"])
    with pytest.raises(SystemExit):
        cli.knob_overrides(parser, registry.get("fig4"), args)
    assert "--hours does not apply" in capsys.readouterr().err


def test_scalar_shards_is_rejected_where_shards_is_swept(capsys):
    parser = cli.build_parser()
    args = parser.parse_args(["run", "serve_scale", "--shards", "4"])
    with pytest.raises(SystemExit):
        cli.knob_overrides(parser, registry.get("serve_scale"), args)
    assert "sweeps" in capsys.readouterr().err


@pytest.fixture(scope="module")
def smoke_run():
    """One shared smoke soak (the expensive part of this module)."""
    return registry.run_experiment("soak", RuntimeConfig(), smoke=True)


def test_smoke_soak_has_three_epochs_and_a_summary(smoke_run):
    assert len(smoke_run.result.snapshots) == 3
    summary = smoke_run.result.summary
    assert summary.epochs == 3
    assert summary.virtual_hours == pytest.approx(0.5)
    assert summary.offered > 0
    assert summary.throughput_per_s > 0
    assert summary.p99_latency_ms > 0


def test_registry_run_never_touches_the_trend_file(smoke_run, tmp_path):
    # run_experiment already completed (module fixture); the committed
    # default path must not have been the target of any write from it.
    # The real guarantee: post_run is a separate, CLI-only hook.
    entry = trend.entry_from_summary(smoke_run.result.summary, smoke_run.params)
    path = tmp_path / "SOAK_TREND.json"
    assert not path.exists()
    doc, appended = trend.append_entry(path, entry)
    assert appended and len(doc["entries"]) == 1


def test_main_appends_one_entry_and_reruns_dedupe(tmp_path, capsys):
    path = tmp_path / "SOAK_TREND.json"
    argv = [
        "run",
        "soak",
        "--smoke",
        "--trend-file",
        str(path),
    ]
    assert cli.main(argv) == 0
    assert "appended entry" in capsys.readouterr().out
    assert len(trend.load_trend(path)["entries"]) == 1
    # A rerun of the identical tree appends nothing.
    assert cli.main(argv) == 0
    assert "tail entry unchanged" in capsys.readouterr().out
    assert len(trend.load_trend(path)["entries"]) == 1


def test_no_trend_skips_the_append(tmp_path, capsys):
    path = tmp_path / "SOAK_TREND.json"
    assert (
        cli.main(
            [
                "run",
                "soak",
                "--smoke",
                "--no-trend",
                "--trend-file",
                str(path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert not path.exists()
