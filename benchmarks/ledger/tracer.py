"""Span recording around the program's public layer boundaries.

The traced run replaces each :data:`~benchmarks.ledger.spec.LAYERS`
target with a timing wrapper for the duration of a ``with wrapped(...)``
block and puts the original object back afterwards. Each call records a
span ``(id, parent, layer, target, pass, start_ns, end_ns, cpu_ns)``;
spans stay in memory and are written once, at the end, as JSONL.

A layer's self time is its spans' time minus the time of their child
spans. A target that cannot be resolved is reported as absent; its time
then falls to whichever layer called it, or to ``ledger.unattributed_s``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.ledger.spec import LAYERS, SERVE_ENTRY_LAYERS, Layer, Target

Span = Tuple[int, Optional[int], str, str, int, int, int, int]


class Recorder:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.pass_index = -1
        self._stack: List[int] = []
        self._next_id = 0

    def wrap(self, layer: str, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A stand-in for ``fn`` that records one span per call."""
        stack = self._stack
        spans = self.spans
        perf_ns = time.perf_counter_ns
        cpu_ns = time.process_time_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu_start = cpu_ns()
            start = perf_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_ns()
                cpu = cpu_ns() - cpu_start
                stack.pop()
                spans.append(
                    (span_id, parent, layer, target.name, self.pass_index, start, end, cpu)
                )
            if target.count is not None and target.counter is not None:
                self.counts[target.counter] += target.count(args, result)
            return result

        return traced

    def write_jsonl(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        fields = ("id", "parent", "layer", "target", "pass", "start_ns", "end_ns", "cpu_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


def resolve(target: Target) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a target.

    Raises ``ImportError`` or ``AttributeError`` when the target no
    longer exists.
    """
    owner: Any = importlib.import_module(target.module)
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # The raw function from the class dict, so that restoring puts
        # back exactly the object that was there.
        if attr not in vars(owner):
            raise AttributeError(f"{target.name} is not defined on {owner.__name__}")
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


@contextlib.contextmanager
def wrapped(recorder: Recorder, layers: Sequence[Layer] = LAYERS) -> Iterator[List[str]]:
    """Install timing wrappers; yields the names of absent targets."""
    installed: List[Tuple[Any, str, Any]] = []
    absent: List[str] = []
    try:
        for layer in layers:
            for target in layer.targets:
                try:
                    owner, attr, original = resolve(target)
                except (ImportError, AttributeError):
                    absent.append(target.name)
                    continue
                setattr(owner, attr, recorder.wrap(layer.name, target, original))
                installed.append((owner, attr, original))
        yield absent
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def _percentile_ms(durations_ns: List[int], q: float) -> float:
    if not durations_ns:
        return 0.0
    return float(np.percentile(np.asarray(durations_ns, dtype=float), q)) / 1e6


def layer_metrics(
    recorder: Recorder,
    traced_wall_s: float,
    virtual_busy_s: float,
    layers: Sequence[Layer] = LAYERS,
) -> Dict[str, Any]:
    """Per-layer calls, self wall and CPU time, shares and percentiles.

    ``serve.cost_model_ratio`` divides the host time spent inside the
    outermost serve entry calls by the virtual busy time the service's
    cost model charged for the same work (0 when nothing was served).
    """
    layer_of: Dict[int, str] = {}
    child_ns: Dict[int, int] = defaultdict(int)
    child_cpu_ns: Dict[int, int] = defaultdict(int)
    for span_id, parent, layer, _, _, start, end, cpu in recorder.spans:
        layer_of[span_id] = layer
        if parent is not None:
            child_ns[parent] += end - start
            child_cpu_ns[parent] += cpu
    calls: Dict[str, int] = defaultdict(int)
    busy_ns: Dict[str, int] = defaultdict(int)
    cpu_ns: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[int]] = defaultdict(list)
    serve_entry_ns = 0
    for span_id, parent, layer, _, _, start, end, cpu in recorder.spans:
        calls[layer] += 1
        busy_ns[layer] += end - start - child_ns[span_id]
        cpu_ns[layer] += cpu - child_cpu_ns[span_id]
        durations[layer].append(end - start)
        if layer in SERVE_ENTRY_LAYERS and (
            parent is None or layer_of[parent] not in SERVE_ENTRY_LAYERS
        ):
            serve_entry_ns += end - start
    metrics: Dict[str, Any] = {}
    for layer in layers:
        name = layer.name
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy_ns[name] / 1e9
        metrics[f"{name}.cpu_s"] = cpu_ns[name] / 1e9
        metrics[f"{name}.share_ratio"] = busy_ns[name] / 1e9 / traced_wall_s
    attributed_s = sum(busy_ns.values()) / 1e9
    metrics.update(
        {
            "gen2.reads": recorder.counts["gen2.reads"],
            "serve.fold.blocks": recorder.counts["serve.fold.blocks"],
            "serve.ingest.p99_ms": _percentile_ms(durations["serve.ingest"], 99.0),
            "serve.step.p99_ms": _percentile_ms(durations["serve.step"], 99.0),
            "serve.finalize.p90_ms": _percentile_ms(durations["serve.finalize"], 90.0),
            "ledger.coverage_ratio": attributed_s / traced_wall_s,
            "ledger.unattributed_s": traced_wall_s - attributed_s,
            "serve.cost_model_ratio": (
                serve_entry_ns / 1e9 / virtual_busy_s if virtual_busy_s > 0 else 0.0
            ),
        }
    )
    return metrics
