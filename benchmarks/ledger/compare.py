"""Judge two sets of ledger runs, metric by metric and workload by workload.

A set is a directory of run reports written by ``run --out``. For each
workload and end-to-end metric both sides give a median and quartiles,
and the verdict is:

``ok``
    The second side's median is no worse than the first's by more than
    the metric's bound.
``regressed``
    It is worse by more than the bound. For a simulated (bound 0)
    metric: any difference on the same seeds.
``unresolved``
    A side's spread (quartile distance over median) exceeds the bound,
    so the sets cannot tell a change from noise — unless every run of
    the second side is better than every run of the first. A simulated
    metric is unresolved when the sides ran different seeds.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from benchmarks.ledger.spec import END_TO_END, Metric

#: workload -> list of (seed, report) in seed order.
RunSet = Dict[str, List[Tuple[int, Dict[str, Any]]]]


@dataclass(frozen=True)
class Row:
    """The comparison of one metric on one workload."""

    workload: str
    metric: Metric
    a: Tuple[float, float, float]
    b: Tuple[float, float, float]
    verdict: str


def load_set(directory: Path) -> RunSet:
    """Every ledger run report in ``directory``, grouped by workload."""
    runs: RunSet = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("name") != "ledger" or "workload" not in doc.get("context", {}):
            continue
        context = doc["context"]
        runs.setdefault(context["workload"], []).append((context["seed"], doc))
    for entries in runs.values():
        entries.sort(key=lambda entry: entry[0])
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(stats: Tuple[float, float, float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = stats
    return (q3 - q1) / abs(median) if median else 0.0


def _values(
    entries: List[Tuple[int, Dict[str, Any]]], section: str, name: str
) -> Dict[int, float]:
    """Seed -> value; end-to-end numbers come from untraced runs only,
    per-layer numbers from traced runs."""
    traced = section == "per_layer"
    return {
        seed: doc["metrics"][section][name]
        for seed, doc in entries
        if doc["context"]["traced"] == traced and name in doc["metrics"].get(section, {})
    }


def _worsening(metric: Metric, a: float, b: float) -> float:
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def verdict(metric: Metric, a: Dict[int, float], b: Dict[int, float]) -> str:
    """ok / regressed / unresolved for one metric (see module docstring)."""
    assert metric.bound is not None
    if metric.bound == 0:
        if sorted(a) != sorted(b):
            return "unresolved"
        return "ok" if a == b else "regressed"
    stats_a = quartiles(list(a.values()))
    stats_b = quartiles(list(b.values()))
    if max(spread(stats_a), spread(stats_b)) > metric.bound:
        if all(_worsening(metric, x, y) < 0 for x in a.values() for y in b.values()):
            return "ok"
        return "unresolved"
    return "regressed" if _worsening(metric, stats_a[1], stats_b[1]) > metric.bound else "ok"


def compare_sets(side_a: RunSet, side_b: RunSet) -> List[Row]:
    """One row per workload present on both sides and metric they report."""
    rows = []
    for workload in sorted(set(side_a) & set(side_b)):
        for metric in END_TO_END:
            a = _values(side_a[workload], "end_to_end", metric.name)
            b = _values(side_b[workload], "end_to_end", metric.name)
            if not a or not b:
                continue
            rows.append(
                Row(
                    workload,
                    metric,
                    quartiles(list(a.values())),
                    quartiles(list(b.values())),
                    verdict(metric, a, b),
                )
            )
    return rows


def format_rows(rows: Sequence[Row]) -> List[str]:
    """The comparison table: medians, spreads and verdicts."""
    lines = [
        f"{'workload':16} {'metric':27} {'A median':>12} {'A iqr':>7} "
        f"{'B median':>12} {'B iqr':>7} {'change':>8} {'bound':>6}  verdict"
    ]
    for row in rows:
        change = (row.b[1] - row.a[1]) / abs(row.a[1]) if row.a[1] else 0.0
        lines.append(
            f"{row.workload:16} {row.metric.label:27} {row.a[1]:>12.6g} {spread(row.a):>7.1%} "
            f"{row.b[1]:>12.6g} {spread(row.b):>7.1%} {change:>+8.1%} {row.metric.bound_text:>6}  "
            f"{row.verdict}"
        )
    return lines


def _set_values(side: RunSet) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for workload, entries in side.items():
        table: Dict[str, Any] = {}
        for section in ("end_to_end", "per_layer"):
            names = sorted(
                {name for _, doc in entries for name in doc["metrics"].get(section, {})}
            )
            columns = {name: _values(entries, section, name) for name in names}
            if columns:
                table[section] = {
                    "seeds": sorted(next(iter(columns.values()))),
                    **{name: list(values.values()) for name, values in columns.items()},
                }
        out[workload] = table
    return out


def write_baseline(
    path: Path, side_a: RunSet, side_b: RunSet, rows: Sequence[Row]
) -> None:
    """Write both sets and their verdicts as one ``ledger`` report."""
    from repro.obs.reports import bench_report, write_json_atomic

    some_run = next(doc for entries in side_a.values() for _, doc in entries)
    keys = ("seconds", "nproc", "cpu", "python", "numpy")
    context: Dict[str, Any] = {key: some_run["context"][key] for key in keys}
    context["params"] = {
        workload: entries[0][1]["context"]["params"]
        for workload, entries in side_a.items()
    }
    context["bounds"] = {m.name: m.bound for m in END_TO_END}
    metrics = {
        "sets": {"a": _set_values(side_a), "b": _set_values(side_b)},
        "verdicts": {
            row.workload + "." + row.metric.name: row.verdict for row in rows
        },
    }
    write_json_atomic(path, bench_report("ledger", metrics, context))
