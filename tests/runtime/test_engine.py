"""Unit tests for run_sweep: backends, caching, manifests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import TraceMallocObserver
from repro.runtime import RuntimeConfig, SweepTask, run_sweep

from tests.runtime import sweep_fns


def _tasks(n=4):
    return [
        SweepTask.make(
            sweep_fns.normal_sum, params={"n": 8 * (i + 1)}, seed=100 + i
        )
        for i in range(n)
    ]


class TestSerialBackend:
    def test_results_in_task_order(self):
        sweep = run_sweep(_tasks(5))
        expected = [t.execute() for t in _tasks(5)]
        assert sweep.results == expected

    def test_len_and_iter(self):
        sweep = run_sweep(_tasks(3))
        assert len(sweep) == 3
        assert list(sweep) == sweep.results

    def test_empty_task_list(self):
        sweep = run_sweep([])
        assert sweep.results == []
        assert sweep.manifest.n_tasks == 0

    def test_task_error_propagates(self):
        task = SweepTask.make(sweep_fns.boom, params={}, seed=1)
        with pytest.raises(ValueError, match="boom"):
            run_sweep([task])


class TestProcessBackend:
    def test_matches_serial_bitwise(self):
        tasks = [
            SweepTask.make(sweep_fns.normal_draw, params={"n": 64}, seed=s)
            for s in range(6)
        ]
        serial = run_sweep(tasks, RuntimeConfig(backend="serial"))
        parallel = run_sweep(
            tasks, RuntimeConfig(backend="process", max_workers=2)
        )
        for a, b in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(a, b)
        assert serial.manifest.fingerprint() == parallel.manifest.fingerprint()

    def test_single_task_stays_serial(self):
        # One task gains nothing from a pool; backend falls back.
        sweep = run_sweep(
            _tasks(1), RuntimeConfig(backend="process", max_workers=2)
        )
        assert sweep.results == [_tasks(1)[0].execute()]


class TestCaching:
    def test_cold_then_warm(self, tmp_path):
        config = RuntimeConfig(cache_dir=tmp_path / "cache")
        cold = run_sweep(_tasks(4), config)
        assert cold.manifest.cache_hits == 0
        warm = run_sweep(_tasks(4), config)
        assert warm.manifest.cache_hits == 4
        assert warm.results == cold.results
        assert warm.manifest.fingerprint() == cold.manifest.fingerprint()

    def test_no_cache_escape_hatch(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(_tasks(2), RuntimeConfig(cache_dir=cache_dir))
        bypass = run_sweep(
            _tasks(2), RuntimeConfig(cache_dir=cache_dir, use_cache=False)
        )
        assert bypass.manifest.cache_hits == 0
        assert not bypass.manifest.cache_enabled

    def test_param_change_invalidates(self, tmp_path):
        config = RuntimeConfig(cache_dir=tmp_path / "cache")
        run_sweep(_tasks(2), config)
        other = [
            SweepTask.make(sweep_fns.normal_sum, params={"n": 999}, seed=100)
        ]
        sweep = run_sweep(other, config)
        assert sweep.manifest.cache_hits == 0

    def test_partial_warmth(self, tmp_path):
        config = RuntimeConfig(cache_dir=tmp_path / "cache")
        run_sweep(_tasks(2), config)
        sweep = run_sweep(_tasks(4), config)
        assert sweep.manifest.cache_hits == 2


class TestSeeding:
    def test_root_seed_fills_missing(self):
        tasks = [
            SweepTask.make(sweep_fns.normal_sum, params={"n": 8})
            for _ in range(3)
        ]
        a = run_sweep(tasks, root_seed=0)
        b = run_sweep(tasks, root_seed=0)
        c = run_sweep(tasks, root_seed=1)
        assert a.results == b.results
        assert a.results != c.results
        assert len(set(t.seed for t in a.manifest.tasks)) == 3


class TestManifest:
    def test_records_per_task(self):
        sweep = run_sweep(_tasks(3), name="unit")
        manifest = sweep.manifest
        assert manifest.sweep == "unit"
        assert manifest.n_tasks == 3
        assert [t.index for t in manifest.tasks] == [0, 1, 2]
        for record in manifest.tasks:
            assert record.fn == "tests.runtime.sweep_fns:normal_sum"
            assert record.wall_time_s >= 0.0
            assert len(record.result_hash) == 64

    def test_saved_to_manifest_dir(self, tmp_path):
        config = RuntimeConfig(manifest_dir=tmp_path / "manifests")
        sweep = run_sweep(_tasks(2), config, name="saved")
        path = tmp_path / "manifests" / "saved.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["sweep"] == "saved"
        assert data["n_tasks"] == 2
        assert data["fingerprint"] == sweep.manifest.fingerprint()
        assert len(data["tasks"]) == 2

    def test_trace_memory_records_peak(self):
        sweep = run_sweep(_tasks(2), observers=[TraceMallocObserver()])
        for record in sweep.manifest.tasks:
            assert record.peak_memory_bytes is not None
            assert record.peak_memory_bytes > 0

    def test_fingerprint_ignores_timing_fields(self):
        a = run_sweep(_tasks(3)).manifest
        b = run_sweep(_tasks(3)).manifest
        assert a.fingerprint() == b.fingerprint()
        assert a.task_wall_time_s != b.task_wall_time_s or True  # timings free


class TestConfigValidation:
    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(backend="threads")

    def test_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(max_workers=0)
