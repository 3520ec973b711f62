"""Traffic generation and workload replay: determinism and the CLI."""

import dataclasses
import json

import numpy as np
import pytest

from repro import faults
from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import ConfigurationError, ReferenceLostError
from repro.experiments.resilience import plan_for
from repro.runtime.cache import ResultCache
from repro.scenarios.compiler import generate_workload
from repro.serve import LocalizationService, ServeConfig, replay, run_workload
from repro.serve.__main__ import main

F = UHF_CENTER_FREQUENCY
CONVEYOR = "conveyor_flow_through"


def small_workload(seed=0, load=1.0):
    return generate_workload(
        CONVEYOR, n_tags=2, seed=seed, load=load, grid_resolution=0.2
    )


class TestGenerateWorkload:
    def test_parameters_are_validated(self):
        with pytest.raises(ConfigurationError):
            generate_workload(CONVEYOR, n_tags=0)
        with pytest.raises(ConfigurationError):
            generate_workload(CONVEYOR, load=0.0)

    def test_same_seed_same_stream(self):
        a = small_workload(seed=7)
        b = small_workload(seed=7)
        assert len(a.events) == len(b.events)
        for ea, eb in zip(a.events, b.events):
            assert ea.time_s == eb.time_s
            assert ea.session_id == eb.session_id
            np.testing.assert_array_equal(
                ea.measurement.h_target, eb.measurement.h_target
            )

    def test_different_seeds_differ(self):
        a = small_workload(seed=0)
        b = small_workload(seed=1)
        assert not np.allclose(
            a.tag_positions["tag-0001"], b.tag_positions["tag-0001"]
        )

    def test_load_compresses_the_timeline(self):
        slow = small_workload(load=1.0)
        fast = small_workload(load=4.0)
        assert fast.duration_s == pytest.approx(slow.duration_s / 4.0)
        assert fast.events[-1].time_s == pytest.approx(
            slow.events[-1].time_s / 4.0
        )

    def test_events_are_time_ordered(self):
        workload = small_workload()
        times = [e.time_s for e in workload.events]
        assert times == sorted(times)

    def test_gen2_mac_never_reads_more_than_the_powered_set(self):
        with_mac = generate_workload(
            CONVEYOR, n_tags=3, seed=0, grid_resolution=0.2, use_gen2_mac=True
        )
        without = generate_workload(
            CONVEYOR, n_tags=3, seed=0, grid_resolution=0.2, use_gen2_mac=False
        )
        # The MAC singulates from the powered set, so it can only thin
        # the stream (with few tags and many slots it reads them all).
        assert len(with_mac.events) <= len(without.events)

    def test_powering_range_gates_reads(self):
        near = generate_workload(
            CONVEYOR, n_tags=3, seed=0, grid_resolution=0.2, powering_range_m=10.0
        )
        far = generate_workload(
            CONVEYOR, n_tags=3, seed=0, grid_resolution=0.2, powering_range_m=0.5
        )
        assert len(far.events) < len(near.events)


class TestRunWorkload:
    def test_replay_is_deterministic(self):
        config = ServeConfig(frequency_hz=F)
        a = run_workload(small_workload(), config)
        b = run_workload(small_workload(), config)
        assert a.service == b.service
        assert a.throughput_per_s == b.throughput_per_s
        for sid in a.estimates:
            np.testing.assert_array_equal(a.estimates[sid], b.estimates[sid])

    def test_light_load_localizes_every_tag(self):
        report = run_workload(
            small_workload(), ServeConfig(frequency_hz=F)
        )
        assert report.shed_fraction == 0.0
        assert len(report.estimates) == 2
        assert all(err < 0.5 for err in report.errors_m.values())


class TestReplayFinalizeRule:
    """Every session ends with a fix or a typed failure, never neither."""

    def _kill_after_last_read(self, workload):
        # One scheduling round per event: the last event's round kills.
        return faults.FaultPlan.single(
            "serve.session",
            "reboot",
            trigger=faults.Trigger(
                kind="nth_call", n=len(workload.events) - 1
            ),
        )

    def test_a_session_killed_after_its_last_read_fails_at_finalize(self):
        workload = small_workload()
        with faults.engaged(self._kill_after_last_read(workload), seed=0):
            report = replay(
                LocalizationService(ServeConfig(frequency_hz=F)), workload
            )
        assert report.errors_m == {}
        assert report.failures == {
            session_id: "SessionNotFoundError"
            for session_id in workload.grids
        }

    def test_a_checkpoint_restores_it_at_finalize(self, tmp_path):
        workload = small_workload()
        with faults.engaged(self._kill_after_last_read(workload), seed=0):
            report = replay(
                LocalizationService(
                    ServeConfig(frequency_hz=F), cache=ResultCache(tmp_path)
                ),
                workload,
            )
        assert report.failures == {}
        assert report.errors_m.keys() == workload.grids.keys()
        assert report.service.recoveries == len(workload.grids)

    def test_a_session_with_one_read_is_not_finalized(self):
        workload = small_workload()
        first = next(
            e for e in workload.events if e.session_id == "tag-0002"
        )
        thinned = dataclasses.replace(
            workload,
            events=tuple(
                e
                for e in workload.events
                if e.session_id != "tag-0002" or e is first
            ),
        )
        report = replay(
            LocalizationService(ServeConfig(frequency_hz=F)), thinned
        )
        assert report.failures == {
            "tag-0002": "InsufficientMeasurementsError"
        }
        assert set(report.errors_m) == set(report.ladders) == {"tag-0001"}

    def test_typed_errors_propagate_unless_contained(self):
        config = ServeConfig(frequency_hz=F, reference_timeout_s=0.1)
        with faults.engaged(plan_for("outage", 0.5), seed=0):
            workload = small_workload()
            with pytest.raises(ReferenceLostError):
                replay(LocalizationService(config), workload)
        with faults.engaged(plan_for("outage", 0.5), seed=0):
            workload = small_workload()
            report = replay(LocalizationService(config), workload, contain=True)
        assert set(report.failures.values()) == {"ReferenceLostError"}
        assert report.unadmitted > 0


class TestCli:
    def test_smoke_run_writes_obs_artifacts(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        exit_code = main(["--smoke", "--obs-dir", str(obs_dir)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "online localization service" in out
        assert "p99 latency" in out
        trace = obs_dir / "serve.trace.jsonl"
        metrics = obs_dir / "serve.metrics.json"
        assert trace.exists() and metrics.exists()
        payload = json.loads(metrics.read_text())
        names = json.dumps(payload)
        assert "serve.updates.accepted" in names
        first_span = json.loads(trace.read_text().splitlines()[0])
        assert "name" in first_span

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--tags", "0"], "--tags must be >= 1, got 0"),
            (["--shards", "0", "--smoke"], "--shards must be >= 1, got 0"),
            (["--shards", "-2", "--smoke"], "--shards must be >= 1, got -2"),
            (["--smoke", "--load", "0"], "load factor must be positive"),
        ],
    )
    def test_bad_input_is_one_stderr_line_and_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"python -m repro.serve: error: {message}"]
