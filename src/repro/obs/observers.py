"""Sweep observers: the pluggable observability surface of the engine.

``repro.runtime.run_sweep(..., observers=[...])`` accepts any object
implementing the small :class:`SweepObserver` protocol:

``probe()``
    What the observer needs *inside* each task — returned as a
    picklable :class:`WorkerProbe` of boolean capabilities so worker
    processes know which collectors to arm without shipping the
    observer itself.
``on_sweep_start(name, tasks, config)``
    Called once before cache resolution/dispatch.
``on_task(record, outcome)``
    Called once per task, **in task order**, after all tasks finished —
    the reduction point where worker telemetry (spans, metric
    snapshots, peaks, profiles) merges deterministically regardless of
    scheduling.
``on_sweep_end(manifest)``
    Called once with the finished :class:`~repro.runtime.manifest.RunManifest`.

The concrete observers here cover the tentpole surface: structured
tracing (:class:`TraceObserver`), the metrics registry
(:class:`MetricsObserver`), and the opt-in profiling hooks
(:class:`TraceMallocObserver`, :class:`CProfileObserver`).

This module must not import from ``repro.runtime`` (the engine imports
us), so engine-side types appear as ``Any`` in signatures.
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.obs import metrics as metrics_mod
from repro.obs import tracing as tracing_mod
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, render_span_tree, write_spans_jsonl


@dataclass(frozen=True)
class WorkerProbe:
    """Picklable per-task capability flags shipped to workers."""

    trace: bool = False
    metrics: bool = False
    trace_malloc: bool = False
    profile: bool = False

    @property
    def enabled(self) -> bool:
        """Whether any collector is armed."""
        return self.trace or self.metrics or self.trace_malloc or self.profile

    def merged(self, other: "WorkerProbe") -> "WorkerProbe":
        """Union of two probes' capabilities."""
        return WorkerProbe(
            trace=self.trace or other.trace,
            metrics=self.metrics or other.metrics,
            trace_malloc=self.trace_malloc or other.trace_malloc,
            profile=self.profile or other.profile,
        )


#: The do-nothing probe (every flag off).
NULL_PROBE = WorkerProbe()


def combined_probe(observers: Iterable[Any]) -> WorkerProbe:
    """Union of every observer's :meth:`~SweepObserver.probe`."""
    probe = NULL_PROBE
    for observer in observers:
        probe = probe.merged(observer.probe())
    return probe


@dataclass
class TaskTelemetry:
    """What one task's collectors measured (rides in the task envelope).

    Every field is plain picklable data — serialized span dicts, a
    metrics snapshot, an integer peak, profile rows — so the envelope
    crosses the process boundary unchanged.
    """

    spans: Optional[List[Dict[str, Any]]] = None
    metrics: Optional[Dict[str, Any]] = None
    peak_memory_bytes: Optional[int] = None
    profile_rows: Optional[List[Dict[str, Any]]] = None


@contextmanager
def probed(probe: WorkerProbe) -> Iterator[TaskTelemetry]:
    """Arm the collectors ``probe`` asks for around one task body.

    A *fresh* tracer/registry is activated for the scope (the previous
    ones are restored on exit), so a serial in-process task records
    exactly the same structures a worker-process task would — the
    foundation of the serial==parallel telemetry property.
    """
    telemetry = TaskTelemetry()
    tracer = Tracer() if probe.trace else None
    registry = MetricsRegistry() if probe.metrics else None
    previous_tracer = (
        tracing_mod.activate_tracer(tracer) if probe.trace else None
    )
    previous_registry = (
        metrics_mod.activate_registry(registry) if probe.metrics else None
    )
    profiler = cProfile.Profile() if probe.profile else None
    if probe.trace_malloc:
        tracemalloc.start()
    if profiler is not None:
        profiler.enable()
    try:
        yield telemetry
    finally:
        if profiler is not None:
            profiler.disable()
            telemetry.profile_rows = _profile_rows(profiler)
        if probe.trace_malloc:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            telemetry.peak_memory_bytes = int(peak)
        if probe.metrics:
            metrics_mod.activate_registry(previous_registry)
            assert registry is not None
            telemetry.metrics = registry.snapshot()
        if probe.trace:
            tracing_mod.activate_tracer(previous_tracer)
            assert tracer is not None
            telemetry.spans = tracer.root_dicts()


def _profile_rows(
    profiler: cProfile.Profile, top_n: int = 25
) -> List[Dict[str, Any]]:
    """Top-N rows by cumulative time, as picklable dicts."""
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, line, func), (
        _cc,
        ncalls,
        tottime_s,
        cumtime_s,
        _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        rows.append(
            {
                "function": f"{filename}:{line}:{func}",
                "ncalls": int(ncalls),
                "tottime_s": float(tottime_s),
                "cumtime_s": float(cumtime_s),
            }
        )
    rows.sort(key=lambda row: (-row["cumtime_s"], row["function"]))
    return rows[:top_n]


class SweepObserver:
    """Base class / protocol for sweep observers (all hooks optional)."""

    def probe(self) -> WorkerProbe:
        """Capabilities this observer needs inside each task."""
        return NULL_PROBE

    def on_sweep_start(self, name: str, tasks: Any, config: Any) -> None:
        """Called once before cache resolution and dispatch."""

    def on_task(self, record: Any, outcome: Any) -> None:
        """Called per task in task order, after the sweep finishes."""

    def on_sweep_end(self, manifest: Any) -> None:
        """Called once with the finished run manifest."""


class TraceObserver(SweepObserver):
    """Collects span trees and optionally writes ``<sweep>.trace.jsonl``.

    The JSONL file holds one line per span tree: first the engine's own
    spans (``task: null``), then each task's spans in task order.
    """

    def __init__(self, out_dir: "Optional[str | Path]" = None) -> None:
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.manifests: List[Any] = []
        self.last_path: Optional[Path] = None

    def probe(self) -> WorkerProbe:
        """Tasks must run under a fresh tracer."""
        return WorkerProbe(trace=True)

    def on_sweep_end(self, manifest: Any) -> None:
        """Remember the manifest; write the JSONL trace when configured."""
        self.manifests.append(manifest)
        if self.out_dir is None:
            return
        entries: List[Dict[str, Any]] = [
            {"task": None, "span": span_dict}
            for span_dict in getattr(manifest, "spans", [])
        ]
        for record in manifest.tasks:
            for span_dict in record.spans or []:
                entries.append(
                    {
                        "task": record.index,
                        "label": record.label,
                        "span": span_dict,
                    }
                )
        self.last_path = write_spans_jsonl(
            self.out_dir / f"{manifest.sweep}.trace.jsonl", entries
        )

    def report(self, manifest: Optional[Any] = None) -> str:
        """Engine span tree of ``manifest`` (default: the last sweep)."""
        manifest = manifest or (self.manifests[-1] if self.manifests else None)
        if manifest is None:
            return "(no sweeps traced)"
        return render_span_tree(
            list(getattr(manifest, "spans", [])),
            total_wall_time_s=manifest.total_wall_time_s,
        )


class MetricsObserver(SweepObserver):
    """Owns a registry; merges every task's metric snapshot in order.

    The engine activates :attr:`registry` for the duration of the sweep
    so engine-side counters (cache hits/misses, dispatched tasks,
    corrupt-entry self-heals) land here directly; task-side deltas
    arrive through :meth:`on_task`.
    """

    def __init__(self, out_dir: "Optional[str | Path]" = None) -> None:
        self.registry = MetricsRegistry()
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.last_path: Optional[Path] = None

    def probe(self) -> WorkerProbe:
        """Tasks must run against a fresh registry."""
        return WorkerProbe(metrics=True)

    def on_task(self, record: Any, outcome: Any) -> None:
        """Merge the task's metric snapshot (task order == determinism)."""
        telemetry = getattr(outcome, "telemetry", None)
        if telemetry is not None and telemetry.metrics is not None:
            self.registry.merge_snapshot(telemetry.metrics)

    def on_sweep_end(self, manifest: Any) -> None:
        """Write ``<sweep>.metrics.json`` when configured."""
        if self.out_dir is not None:
            self.last_path = self.registry.save_json(
                self.out_dir / f"{manifest.sweep}.metrics.json"
            )

    def report(self) -> str:
        """Text rendering of the merged registry."""
        return self.registry.render_text()


class TraceMallocObserver(SweepObserver):
    """Per-task peak traced allocations, recorded in the run manifest."""

    def __init__(self) -> None:
        self.peaks_by_label: Dict[str, int] = {}

    def probe(self) -> WorkerProbe:
        """Arm tracemalloc around each task."""
        return WorkerProbe(trace_malloc=True)

    def on_task(self, record: Any, outcome: Any) -> None:
        """Collect the task's peak (also lands in its manifest record)."""
        telemetry = getattr(outcome, "telemetry", None)
        if telemetry is not None and telemetry.peak_memory_bytes is not None:
            self.peaks_by_label[record.label] = telemetry.peak_memory_bytes


class CProfileObserver(SweepObserver):
    """Aggregates per-task cProfile rows across the sweep."""

    def __init__(self, top_n: int = 25) -> None:
        self.top_n = top_n
        self.rows_by_function: Dict[str, Dict[str, Any]] = {}

    def probe(self) -> WorkerProbe:
        """Arm cProfile around each task."""
        return WorkerProbe(profile=True)

    def on_task(self, record: Any, outcome: Any) -> None:
        """Merge the task's profile rows by function identity."""
        telemetry = getattr(outcome, "telemetry", None)
        if telemetry is None or telemetry.profile_rows is None:
            return
        for row in telemetry.profile_rows:
            merged = self.rows_by_function.get(row["function"])
            if merged is None:
                self.rows_by_function[row["function"]] = dict(row)
            else:
                merged["ncalls"] += row["ncalls"]
                merged["tottime_s"] += row["tottime_s"]
                merged["cumtime_s"] += row["cumtime_s"]

    def top_rows(self) -> List[Dict[str, Any]]:
        """The aggregated top-N rows by cumulative time."""
        rows = sorted(
            self.rows_by_function.values(),
            key=lambda row: (-row["cumtime_s"], row["function"]),
        )
        return rows[: self.top_n]

    def report(self) -> str:
        """Fixed-width top-N table."""
        rows = self.top_rows()
        if not rows:
            return "(no profile collected)"
        lines = [f"{'cumtime':>10}  {'tottime':>10}  {'ncalls':>8}  function"]
        for row in rows:
            lines.append(
                f"{row['cumtime_s']:>9.3f}s  {row['tottime_s']:>9.3f}s  "
                f"{row['ncalls']:>8d}  {row['function']}"
            )
        return "\n".join(lines)


def task_span_coverage(manifest: Any) -> float:
    """Fraction of the sweep's wall time covered by task root spans.

    The acceptance criterion for the tracing layer: in a serial run the
    per-task root spans (``task.execute``) should account for >= 90% of
    the measured end-to-end wall time — anything less means untraced
    engine overhead.
    """
    total_s = float(getattr(manifest, "total_wall_time_s", 0.0))
    if total_s <= 0.0:
        return 0.0
    covered_s = 0.0
    for record in manifest.tasks:
        for span_dict in record.spans or []:
            covered_s += float(span_dict.get("wall_time_s", 0.0))
    return covered_s / total_s
