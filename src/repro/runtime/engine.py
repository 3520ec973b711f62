"""The sweep engine: cache-aware, backend-agnostic task execution.

``run_sweep`` is the one entry point every experiment runner goes
through. The flow per sweep:

1. fill in missing task seeds from ``root_seed`` (SeedSequence spawn);
2. resolve each task's content-addressed cache key and serve hits;
3. dispatch the misses to the configured backend (serial or process
   pool) — payloads are bit-identical either way;
4. persist new payloads and write the run manifest.

Observability attaches through ``observers=[...]`` — any objects
implementing the :class:`~repro.obs.observers.SweepObserver` protocol.
The union of their :class:`~repro.obs.observers.WorkerProbe` flags
ships with every dispatched task, so workers arm exactly the
collectors the attached observers need; telemetry returns inside each
:class:`~repro.runtime.backends.TaskOutcome` and is handed to
observers **in task order**, keeping serial and parallel runs
identical on everything except timing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import repro
from repro.obs import metrics, tracing
from repro.obs.observers import (
    MetricsObserver,
    SweepObserver,
    combined_probe,
)
from repro.obs.tracing import Tracer
from repro.runtime.backends import TaskOutcome, TaskSpec, run_backend
from repro.runtime.cache import ResultCache, cache_key
from repro.runtime.config import RuntimeConfig
from repro.runtime.manifest import (
    RunManifest,
    TaskRecord,
    params_repr,
    payload_hash,
)
from repro.runtime.seeding import seed_tasks
from repro.runtime.task import SweepTask


@dataclass
class SweepResult:
    """Payloads (in task order) plus the run's manifest."""

    results: List[Any]
    manifest: RunManifest

    def __iter__(self) -> "Any":
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


def run_sweep(
    tasks: Sequence[SweepTask],
    config: Optional[RuntimeConfig] = None,
    name: str = "sweep",
    root_seed: Optional[int] = None,
    observers: Optional[Sequence[SweepObserver]] = None,
) -> SweepResult:
    """Execute a task list under one runtime configuration.

    Parameters
    ----------
    tasks:
        The sweep's pure, seeded tasks (see :class:`SweepTask.make`).
    config:
        Backend/cache/manifest knobs; default is serial, no cache.
    name:
        Sweep name — the manifest filename under ``config.manifest_dir``.
    root_seed:
        When given, tasks with ``seed=None`` receive deterministic
        seeds spawned from this root (by task index).
    observers:
        :class:`~repro.obs.observers.SweepObserver` instances — trace,
        metrics, tracemalloc, or cProfile collectors (or your own).
        Observers never change payloads, cache keys, or the manifest
        fingerprint; tables regenerate byte-identically with or
        without them.
    """
    config = config or RuntimeConfig()
    observer_list = list(observers) if observers is not None else []
    probe = combined_probe(observer_list)
    tracer = Tracer() if probe.trace else None
    registry = None
    for observer in observer_list:
        if isinstance(observer, MetricsObserver):
            registry = observer.registry
            break

    tasks = seed_tasks(tasks, root_seed)
    started_s = time.perf_counter()
    for observer in observer_list:
        observer.on_sweep_start(name, tasks, config)

    cache: Optional[ResultCache] = None
    if config.cache_dir is not None and config.use_cache:
        cache = ResultCache(config.cache_dir)

    keys = [cache_key(task) for task in tasks]
    outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
    hits = [False] * len(tasks)
    records: List[TaskRecord] = []

    with tracing.activated(tracer), metrics.activated(registry):
        with tracing.span("sweep.run", sweep=name, n_tasks=len(tasks)):
            misses: List[TaskSpec] = []
            with tracing.span("sweep.resolve_cache"):
                for index, (task, key) in enumerate(zip(tasks, keys)):
                    if cache is not None:
                        load_start_s = time.perf_counter()
                        hit, payload = cache.load(key)
                        if hit:
                            outcomes[index] = TaskOutcome(
                                index=index,
                                payload=payload,
                                wall_time_s=time.perf_counter()
                                - load_start_s,
                            )
                            hits[index] = True
                            metrics.count("runtime.cache.hits")
                            continue
                        metrics.count("runtime.cache.misses")
                    misses.append((index, task, probe))
            metrics.count("runtime.sweeps")
            metrics.count("runtime.tasks.dispatched", len(misses))

            with tracing.span("sweep.dispatch", n_tasks=len(misses)):
                executed = run_backend(config, misses)

            with tracing.span("sweep.persist"):
                for outcome in executed:
                    outcomes[outcome.index] = outcome
                    if cache is not None:
                        cache.store(keys[outcome.index], outcome.payload)
                        metrics.count("runtime.cache.stores")

            with tracing.span("sweep.finalize"):
                for index, (task, key) in enumerate(zip(tasks, keys)):
                    outcome = outcomes[index]
                    assert outcome is not None  # every index: hit or miss
                    telemetry = outcome.telemetry
                    records.append(
                        TaskRecord(
                            index=index,
                            label=task.label,
                            fn=task.fn_id,
                            params=params_repr(task.params),
                            seed=task.seed,
                            cache_key=key,
                            cache_hit=hits[index],
                            wall_time_s=outcome.wall_time_s,
                            result_hash=payload_hash(outcome.payload),
                            peak_memory_bytes=outcome.peak_memory_bytes,
                            spans=None
                            if telemetry is None
                            else telemetry.spans,
                        )
                    )

    manifest = RunManifest(
        sweep=name,
        backend=config.backend,
        n_workers=config.resolved_workers,
        repro_version=repro.__version__,
        cache_dir=None if config.cache_dir is None else str(config.cache_dir),
        cache_enabled=cache is not None,
        total_wall_time_s=time.perf_counter() - started_s,
        spans=tracer.root_dicts() if tracer is not None else [],
        tasks=records,
    )
    for index in range(len(records)):
        for observer in observer_list:
            observer.on_task(records[index], outcomes[index])
    for observer in observer_list:
        observer.on_sweep_end(manifest)
    if config.manifest_dir is not None:
        manifest.save(config.manifest_dir / f"{name}.json")
    return SweepResult(
        results=[o.payload for o in outcomes if o is not None],
        manifest=manifest,
    )
