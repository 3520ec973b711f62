"""The committed soak trend file: compact, canonical, append-per-PR.

``benchmarks/reports/SOAK_TREND.json`` is the bench trajectory the
repo was missing: one :func:`entry_from_summary` record per landed PR,
appended by ``python -m repro.experiments run soak`` and diffed by the
gate. The file is a ``kind="soak_trend"`` report under the shared
:mod:`repro.obs.reports` schema, serialized canonically (key-sorted,
NaN-free, newline-terminated) and written atomically — the trend is
the regression baseline, so a half-written file must be impossible.

Entries carry no timestamps or host facts: an entry is a pure function
of the soak parameters (its ``key``) and the virtual-clock results
(its ``counts``/``metrics``), so re-running the same soak appends
nothing (:func:`append_entry` is idempotent on identical tails) and a
diff in the trend file is always a behavior change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ReportError, TrendError
from repro.obs.reports import (
    REPORT_SCHEMA_VERSION,
    canonical_json,
    read_json,
    validate_report,
    write_json_atomic,
)
from repro.soak.snapshot import SoakSummary

#: Canonical location of the committed trend, relative to the repo root.
TREND_FILENAME = "benchmarks/reports/SOAK_TREND.json"

#: The soak parameters that must match for two entries to be
#: comparable; the gate only diffs entries with equal keys.
KEY_FIELDS: Tuple[str, ...] = (
    "scenario",
    "hours",
    "snapshot_every_s",
    "shards",
    "n_tags",
    "load",
    "grid_resolution",
    "fault_profile",
    "seed",
)


def new_trend() -> Dict[str, Any]:
    """An empty trend document."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "name": "soak_trend",
        "kind": "soak_trend",
        "entries": [],
    }


def entry_key(params: Mapping[str, Any]) -> Dict[str, Any]:
    """The comparability key of a soak run's parameters.

    ``scenario`` may arrive as a registry name or a resolved
    :class:`~repro.scenarios.spec.Scenario`; anonymous specs key by
    their own name field so overridden worlds never silently compare
    against the library world they started from.
    """
    key: Dict[str, Any] = {}
    for field in KEY_FIELDS:
        value = params.get(field)
        if field == "scenario" and value is not None:
            value = getattr(value, "name", value)
        key[field] = value
    return key


def entry_from_summary(
    summary: SoakSummary, params: Mapping[str, Any]
) -> Dict[str, Any]:
    """One trend entry: the run's key, counts, and gated metrics.

    Counts are ints (schema-exempt); every float metric carries its
    unit suffix, which :func:`repro.obs.reports.validate_metrics`
    enforces on the committed file in tier-1.
    """
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "key": entry_key(params),
        "counts": {
            "epochs": summary.epochs,
            "sessions": summary.sessions,
            "fixes": summary.fixes,
            "offered": summary.offered,
            "applied": summary.applied,
            "degraded": summary.degraded,
            "shed": summary.shed,
            "rejected": summary.rejected,
            "lost": summary.lost,
            "handoffs": summary.handoffs,
            "recoveries": summary.recoveries,
            "injected": summary.injected,
        },
        "metrics": {
            "virtual_hours": float(summary.virtual_hours),
            "busy_s": float(summary.busy_s),
            "throughput_per_s": float(summary.throughput_per_s),
            "p50_latency_ms": float(summary.p50_latency_ms),
            "p99_latency_ms": float(summary.p99_latency_ms),
            "mean_error_m": float(summary.mean_error_m),
            "max_error_m": float(summary.max_error_m),
            "degraded_fraction": float(summary.degraded_fraction),
            "shed_fraction": float(summary.shed_fraction),
            "failure_fraction": float(summary.failure_fraction),
        },
    }


def validate_entry(entry: Any, index: int) -> None:
    """One entry's structural check, errors naming the entry index."""
    if not isinstance(entry, Mapping):
        raise TrendError(
            f"trend entry {index} is not an object "
            f"(got {type(entry).__name__})"
        )
    for field in ("key", "counts", "metrics"):
        if not isinstance(entry.get(field), Mapping):
            raise TrendError(
                f"trend entry {index} is missing its {field!r} object"
            )
    for name, value in entry["metrics"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TrendError(
                f"trend entry {index} metric {name!r} is not a number "
                f"(got {type(value).__name__})"
            )


def load_trend(path: Union[str, Path]) -> Dict[str, Any]:
    """Read + validate the trend file; a missing file is an empty trend.

    Corruption is reported precisely: unparseable JSON carries the
    decoder's position, a malformed entry carries its index — the gate
    surfaces these verbatim so a truncated commit is findable at a
    glance.
    """
    path = Path(path)
    if not path.exists():
        return new_trend()
    try:
        doc = read_json(path)
    except ReportError as error:
        raise TrendError(f"trend file: {error}") from error
    try:
        validate_report(doc, name="soak_trend")
    except TrendError:
        raise
    except Exception as error:  # ReportError and friends
        raise TrendError(f"trend file {path}: {error}") from error
    for index, entry in enumerate(doc["entries"]):
        validate_entry(entry, index)
    return doc


def append_entry(
    path: Union[str, Path], entry: Mapping[str, Any]
) -> Tuple[Dict[str, Any], bool]:
    """Append one entry to the trend at ``path``, atomically.

    Idempotent on identical tails: re-running the same soak against
    the same code appends nothing, so CI reruns never grow the file.
    Returns ``(trend_document, appended)``.
    """
    validate_entry(entry, index=-1)
    doc = load_trend(path)
    entries: List[Dict[str, Any]] = doc["entries"]
    normalized = json.loads(canonical_json(dict(entry)))
    if entries and entries[-1] == normalized:
        return doc, False
    entries.append(normalized)
    write_json_atomic(path, doc)
    return doc, True


def matching_baseline(
    doc: Mapping[str, Any],
    key: Mapping[str, Any],
    before_index: Optional[int] = None,
) -> Optional[Dict[str, Any]]:
    """The most recent entry with ``key``, optionally before an index."""
    entries = doc.get("entries", [])
    stop = len(entries) if before_index is None else before_index
    for entry in reversed(entries[:stop]):
        if entry.get("key") == dict(key):
            return entry
    return None
