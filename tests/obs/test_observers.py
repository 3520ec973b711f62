"""Observer protocol tests: probes, telemetry envelopes, engine wiring."""

from __future__ import annotations

import json
import logging

from repro.obs import metrics as metrics_mod
from repro.obs import tracing as tracing_mod
from repro.obs.observers import (
    NULL_PROBE,
    CProfileObserver,
    MetricsObserver,
    SweepObserver,
    TaskTelemetry,
    TraceMallocObserver,
    TraceObserver,
    WorkerProbe,
    combined_probe,
    probed,
    task_span_coverage,
)
from repro.runtime import ResultCache, RuntimeConfig, SweepTask, cache_key, run_sweep

from tests.runtime import sweep_fns


def _tasks(n_tasks=3, n=16):
    return [
        SweepTask.make(
            sweep_fns.instrumented,
            params={"n": n},
            seed=seed,
            label=f"obs/t{seed}",
        )
        for seed in range(n_tasks)
    ]


class TestWorkerProbe:
    def test_null_probe_disabled(self):
        assert not NULL_PROBE.enabled

    def test_any_flag_enables(self):
        assert WorkerProbe(trace=True).enabled
        assert WorkerProbe(metrics=True).enabled
        assert WorkerProbe(trace_malloc=True).enabled
        assert WorkerProbe(profile=True).enabled

    def test_merged_is_union(self):
        merged = WorkerProbe(trace=True).merged(WorkerProbe(profile=True))
        assert merged == WorkerProbe(trace=True, profile=True)

    def test_combined_probe_unions_observers(self):
        probe = combined_probe([TraceObserver(), MetricsObserver()])
        assert probe == WorkerProbe(trace=True, metrics=True)

    def test_base_observer_contributes_nothing(self):
        assert combined_probe([SweepObserver()]) == NULL_PROBE


class TestProbed:
    def test_null_probe_collects_nothing(self):
        with probed(NULL_PROBE) as telemetry:
            tracing_mod.span("ignored")
        assert telemetry == TaskTelemetry()

    def test_trace_probe_collects_spans_and_restores(self):
        before = tracing_mod.active_tracer()
        with probed(WorkerProbe(trace=True)) as telemetry:
            with tracing_mod.span("probed.span", n=1):
                pass
        assert tracing_mod.active_tracer() is before
        assert [s["name"] for s in telemetry.spans] == ["probed.span"]

    def test_metrics_probe_snapshots_and_restores(self):
        before = metrics_mod.active_registry()
        with probed(WorkerProbe(metrics=True)) as telemetry:
            metrics_mod.count("probed.counter", 3)
        assert metrics_mod.active_registry() is before
        assert telemetry.metrics["counters"] == {"probed.counter": 3.0}

    def test_fresh_collectors_shadow_outer_scope(self):
        # A task inside an engine-activated tracer/registry must record
        # into its own fresh collectors, then restore the engine's.
        outer_tracer = tracing_mod.Tracer()
        outer_registry = metrics_mod.MetricsRegistry()
        with tracing_mod.activated(outer_tracer), metrics_mod.activated(
            outer_registry
        ):
            with probed(WorkerProbe(trace=True, metrics=True)) as telemetry:
                with tracing_mod.span("task.only"):
                    metrics_mod.count("task.only")
            with tracing_mod.span("engine.only"):
                metrics_mod.count("engine.only")
        assert [s["name"] for s in telemetry.spans] == ["task.only"]
        assert telemetry.metrics["counters"] == {"task.only": 1.0}
        assert [r.name for r in outer_tracer.roots] == ["engine.only"]
        assert outer_registry.counters == {"engine.only": 1.0}

    def test_trace_malloc_probe_records_peak(self):
        with probed(WorkerProbe(trace_malloc=True)) as telemetry:
            _ = [bytearray(1024) for _ in range(64)]
        assert telemetry.peak_memory_bytes > 0

    def test_profile_probe_records_rows(self):
        with probed(WorkerProbe(profile=True)) as telemetry:
            sum(range(10_000))
        assert telemetry.profile_rows
        row = telemetry.profile_rows[0]
        assert {"function", "ncalls", "tottime_s", "cumtime_s"} <= set(row)


class TestTraceObserver:
    def test_report_renders_engine_spans(self):
        observer = TraceObserver()
        run_sweep(_tasks(), name="obs_trace", observers=[observer])
        report = observer.report()
        assert "sweep.run" in report
        assert "sweep.dispatch" in report

    def test_writes_trace_jsonl(self, tmp_path):
        observer = TraceObserver(out_dir=tmp_path)
        run_sweep(_tasks(2), name="obs_trace", observers=[observer])
        assert observer.last_path == tmp_path / "obs_trace.trace.jsonl"
        entries = [
            json.loads(line)
            for line in observer.last_path.read_text().splitlines()
        ]
        engine = [e for e in entries if e["task"] is None]
        per_task = [e for e in entries if e["task"] is not None]
        assert engine and engine[0]["span"]["name"] == "sweep.run"
        assert [e["task"] for e in per_task] == [0, 1]
        assert all(e["span"]["name"] == "task.execute" for e in per_task)

    def test_manifest_records_task_spans(self):
        observer = TraceObserver()
        result = run_sweep(_tasks(1), name="obs_trace", observers=[observer])
        spans = result.manifest.tasks[0].spans
        root = tracing_mod.Span.from_dict(spans[0])
        names = [node.name for node in root.walk()]
        assert names[0] == "task.execute"
        assert "test.task" in names and "test.draw" in names

    def test_task_span_coverage_near_total_when_serial(self):
        observer = TraceObserver()
        result = run_sweep(
            [
                SweepTask.make(
                    sweep_fns.slow_square,
                    params={"x": 3, "delay_s": 0.02},
                    label=f"slow/{i}",
                )
                for i in range(3)
            ],
            name="obs_coverage",
            observers=[observer],
        )
        assert task_span_coverage(result.manifest) >= 0.9

    def test_empty_report_without_sweeps(self):
        assert TraceObserver().report() == "(no sweeps traced)"


class TestMetricsObserver:
    def test_engine_and_task_counters_merge(self):
        observer = MetricsObserver()
        run_sweep(_tasks(3, n=8), name="obs_metrics", observers=[observer])
        counters = observer.registry.counters
        assert counters["runtime.sweeps"] == 1.0
        assert counters["runtime.tasks.dispatched"] == 3.0
        assert counters["test.draws"] == 3 * 8
        assert observer.registry.histograms["test.total"].count == 3

    def test_writes_metrics_json(self, tmp_path):
        observer = MetricsObserver(out_dir=tmp_path)
        run_sweep(_tasks(1), name="obs_metrics", observers=[observer])
        assert observer.last_path == tmp_path / "obs_metrics.metrics.json"
        data = json.loads(observer.last_path.read_text())
        assert data["counters"]["runtime.sweeps"] == 1.0

    def test_cache_counters(self, tmp_path):
        config = RuntimeConfig(cache_dir=tmp_path / "cache")
        cold = MetricsObserver()
        run_sweep(_tasks(2), config, name="obs_cache", observers=[cold])
        assert cold.registry.counters["runtime.cache.misses"] == 2.0
        assert cold.registry.counters["runtime.cache.stores"] == 2.0
        warm = MetricsObserver()
        run_sweep(_tasks(2), config, name="obs_cache", observers=[warm])
        assert warm.registry.counters["runtime.cache.hits"] == 2.0
        assert "runtime.tasks.dispatched" in warm.registry.counters
        assert warm.registry.counters["runtime.tasks.dispatched"] == 0.0


class TestProfilingObservers:
    def test_trace_malloc_observer_collects_peaks(self):
        observer = TraceMallocObserver()
        result = run_sweep(_tasks(2), name="obs_malloc", observers=[observer])
        assert set(observer.peaks_by_label) == {"obs/t0", "obs/t1"}
        assert all(peak > 0 for peak in observer.peaks_by_label.values())
        assert result.manifest.tasks[0].peak_memory_bytes > 0

    def test_cprofile_observer_aggregates_rows(self):
        observer = CProfileObserver(top_n=5)
        run_sweep(_tasks(2), name="obs_profile", observers=[observer])
        rows = observer.top_rows()
        assert 0 < len(rows) <= 5
        assert "function" in observer.report()

    def test_cprofile_empty_report(self):
        assert CProfileObserver().report() == "(no profile collected)"


class TestCorruptCacheSelfHealing:
    def test_eviction_counts_and_warns(self, tmp_path, caplog):
        cache = ResultCache(tmp_path)
        task = _tasks(1)[0]
        key = cache_key(task)
        cache.store(key, {"ok": True})
        cache.path_for(key).write_bytes(b"not a pickle")
        registry = metrics_mod.MetricsRegistry()
        with metrics_mod.activated(registry):
            with caplog.at_level(logging.WARNING, logger="repro.runtime.cache"):
                hit, payload = cache.load(key)
        assert not hit and payload is None
        assert registry.counters["runtime.cache.corrupt_evicted"] == 1.0
        assert key in caplog.text
        assert not cache.path_for(key).exists()

    def test_sweep_self_heals_corrupt_entry(self, tmp_path):
        config = RuntimeConfig(cache_dir=tmp_path)
        tasks = _tasks(1)
        run_sweep(tasks, config, name="obs_heal")
        corrupt_path = ResultCache(tmp_path).path_for(cache_key(tasks[0]))
        corrupt_path.write_bytes(b"\x80garbage")
        observer = MetricsObserver()
        result = run_sweep(tasks, config, name="obs_heal", observers=[observer])
        assert observer.registry.counters["runtime.cache.corrupt_evicted"] == 1.0
        assert observer.registry.counters["runtime.cache.misses"] == 1.0
        assert result.manifest.tasks[0].cache_hit is False
        # The healed entry is rewritten and serves the next run.
        follow_up = MetricsObserver()
        run_sweep(tasks, config, name="obs_heal", observers=[follow_up])
        assert follow_up.registry.counters["runtime.cache.hits"] == 1.0
