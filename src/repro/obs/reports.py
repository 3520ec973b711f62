"""The shared schema of every committed report under ``benchmarks/reports``.

Every ``BENCH_*.json`` report and the soak trend file
(``SOAK_TREND.json``) share one envelope so the bench trajectory is
machine-checkable across PRs instead of a pile of ad-hoc dicts:

``schema_version``
    The integer schema revision (:data:`REPORT_SCHEMA_VERSION`).
``name``
    The report's stem — ``BENCH_<name>.json`` must carry ``name``.
``kind``
    ``"bench"`` for benchmark records, ``"soak_trend"`` for the
    committed soak trend file.
``metrics``
    The measured numbers. The unit-suffix discipline of reprolint U101
    extends to the wire: every **float** leaf key must end in one of
    :data:`METRIC_SUFFIXES` (``p99_latency_ms``, ``speedup_ratio``,
    ``mean_error_m`` ...). Integer leaves are counts and bools are
    flags; both are exempt, as is anything under ``context``.
``context``
    Free-form configuration the numbers were measured under (floors,
    loads, session counts); exempt from the suffix discipline.

The module also owns :func:`write_json_atomic` — the single way any
report reaches disk. Writes go to a same-directory temp file first and
``os.replace`` onto the target, so a crashed or failing run can never
leave a half-written report behind (the committed trend file is the
regression baseline; truncating it would silence the gate).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ReportError

#: The current envelope revision. Bump on incompatible layout changes.
REPORT_SCHEMA_VERSION = 1

#: Recognized ``kind`` values of a report envelope.
REPORT_KINDS: Tuple[str, ...] = ("bench", "soak_trend")

#: Unit-suffix vocabulary for float metric keys: the reprolint
#: lexicon of ``repro.analysis.rules.units`` plus the dimensionless
#: report suffixes (``_ratio``/``_fraction``/``_abs``) and the soak
#: horizon's ``_hours``. A float that fits none of these is either
#: misnamed or belongs in ``context``.
METRIC_SUFFIXES: Tuple[str, ...] = (
    "s",
    "ms",
    "us",
    "ns",
    "hours",
    "m",
    "mm",
    "cm",
    "km",
    "hz",
    "khz",
    "mhz",
    "ghz",
    "db",
    "dbm",
    "dbi",
    "rad",
    "deg",
    "per_s",
    "bytes",
    "ratio",
    "fraction",
    "abs",
)


def metric_suffix_of(key: str) -> Optional[str]:
    """The unit-suffix token of a metric key, or ``None``.

    ``_per_s`` is the one two-token suffix; everything else is the
    trailing underscore-separated token.
    """
    lowered = key.lower()
    if lowered.endswith("_per_s"):
        return "per_s"
    if "_" not in lowered:
        return None
    token = lowered.rsplit("_", 1)[1]
    return token if token in METRIC_SUFFIXES else None


def _is_float_leaf(value: Any) -> bool:
    """Floats carry units; ints are counts and bools are flags."""
    return isinstance(value, float)


def validate_metrics(metrics: Any, path: str = "metrics") -> None:
    """Enforce the float-leaf suffix discipline, recursively.

    ``metrics`` may nest mappings and lists arbitrarily (a table of
    per-resolution rows, a per-campaign mapping); the discipline
    applies to every ``key: float`` leaf wherever it sits. Violations
    raise :class:`~repro.errors.ReportError` naming the offending
    dotted path.
    """
    if isinstance(metrics, Mapping):
        for key, value in metrics.items():
            if not isinstance(key, str):
                raise ReportError(
                    f"{path}: non-string metric key {key!r}"
                )
            child = f"{path}.{key}"
            if isinstance(value, (Mapping, list, tuple)):
                validate_metrics(value, child)
            elif _is_float_leaf(value) and metric_suffix_of(key) is None:
                known = ", ".join(f"_{s}" for s in METRIC_SUFFIXES)
                raise ReportError(
                    f"{child}: float metric {key!r} has no unit suffix "
                    f"(expected one of {known}; counts should be ints, "
                    "configuration belongs in 'context')"
                )
    elif isinstance(metrics, (list, tuple)):
        for index, item in enumerate(metrics):
            validate_metrics(item, f"{path}[{index}]")
    # Bare scalars at the top level are fine only via a keyed parent,
    # which the mapping branch already vetted.


def bench_report(
    name: str,
    metrics: Mapping[str, Any],
    context: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Build (and validate) one ``kind="bench"`` report envelope."""
    doc: Dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "name": name,
        "kind": "bench",
        "context": dict(context or {}),
        "metrics": _plain(metrics),
    }
    validate_report(doc, name=name)
    return doc


def _plain(value: Any) -> Any:
    """Tuples -> lists so envelopes serialize canonically."""
    if isinstance(value, Mapping):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def validate_report(doc: Any, name: Optional[str] = None) -> None:
    """Validate one report envelope (any :data:`REPORT_KINDS` kind).

    Checks the envelope fields, then applies the metric discipline —
    to ``metrics`` for a bench report, and to every trend entry's
    ``metrics`` for a soak trend (each violation names its entry
    index).
    """
    if not isinstance(doc, Mapping):
        raise ReportError(
            f"report must be a JSON object, got {type(doc).__name__}"
        )
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ReportError("report is missing an integer 'schema_version'")
    if version > REPORT_SCHEMA_VERSION:
        raise ReportError(
            f"report schema_version {version} is newer than the "
            f"supported {REPORT_SCHEMA_VERSION}"
        )
    kind = doc.get("kind")
    if kind not in REPORT_KINDS:
        known = ", ".join(REPORT_KINDS)
        raise ReportError(f"report kind {kind!r} not one of: {known}")
    doc_name = doc.get("name")
    if not isinstance(doc_name, str) or not doc_name:
        raise ReportError("report is missing a nonempty 'name'")
    if name is not None and doc_name != name:
        raise ReportError(
            f"report name {doc_name!r} does not match its file stem "
            f"{name!r}"
        )
    if kind == "bench":
        if not isinstance(doc.get("metrics"), Mapping):
            raise ReportError("bench report is missing a 'metrics' object")
        validate_metrics(doc["metrics"])
    else:
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise ReportError("soak trend is missing an 'entries' list")
        for index, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                raise ReportError(
                    f"trend entry {index} is not an object "
                    f"(got {type(entry).__name__})"
                )
            if not isinstance(entry.get("metrics"), Mapping):
                raise ReportError(
                    f"trend entry {index} is missing a 'metrics' object"
                )
            validate_metrics(entry["metrics"], f"entries[{index}].metrics")


def canonical_json(doc: Any) -> str:
    """The one serialization every report is written in.

    Key-sorted, two-space indented, newline-terminated, and NaN-free
    (``allow_nan=False``: a NaN metric would break round-tripping and
    silently disable gate comparisons). ``canonical_json(json.loads(
    text)) == text`` for any text this function produced — the
    canonicality the trend property tests pin.
    """
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json_atomic(path: Union[str, Path], doc: Any) -> Path:
    """Canonically serialize ``doc`` to ``path``, atomically.

    Serialization happens *before* the target is touched and the bytes
    land in a same-directory temp file renamed over the target, so a
    mid-write crash (or an unserializable document) leaves any existing
    report byte-identical to what was committed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = canonical_json(doc)  # may raise: target untouched
    tmp_path = path.with_name(path.name + ".tmp")
    tmp_path.write_text(text, encoding="utf-8")
    os.replace(tmp_path, path)
    return path


def _finite_float(text: str) -> float:
    """JSON number hook: NaN and infinities (spelled out or overflowing)
    parse in Python but are not JSON, and :func:`canonical_json` could
    never write them back."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def read_json(path: Union[str, Path]) -> Any:
    """Parse one JSON file strictly: UTF-8, finite numbers only.

    The one reader for report-shaped files from outside the program.
    An unreadable file, bytes that are not UTF-8 JSON, a non-finite
    number, or nesting too deep for the parser all raise
    :class:`~repro.errors.ReportError` naming the file.
    """
    path = Path(path)
    try:
        return json.loads(
            path.read_text(encoding="utf-8"),
            parse_float=_finite_float,
            parse_constant=_finite_float,
        )
    except OSError as error:
        raise ReportError(f"cannot read {path}: {error}") from error
    except (ValueError, RecursionError) as error:
        raise ReportError(f"{path} is not valid JSON: {error}") from error


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate one report file (stem-checked for BENCH_*)."""
    path = Path(path)
    doc = read_json(path)
    stem = path.stem
    expected = stem[len("BENCH_"):] if stem.startswith("BENCH_") else None
    try:
        validate_report(doc, name=expected)
    except RecursionError as error:
        raise ReportError(f"{path} nests too deeply to validate") from error
    return doc
