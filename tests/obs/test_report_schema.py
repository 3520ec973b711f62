"""The shared report schema, and the committed reports' compliance.

Tier-1 sweeps every committed file under ``benchmarks/reports/`` —
``BENCH_*.json`` and ``SOAK_TREND.json`` — through the validator, so a
report that drifts from the envelope (or a float metric that loses its
unit suffix) fails the suite, not a human reviewer. The gitignore
tests pin the other half of the satellite: committed report names must
be addable without ``-f`` while generated artifacts stay ignored.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReportError
from repro.obs.reports import (
    REPORT_SCHEMA_VERSION,
    bench_report,
    canonical_json,
    load_report,
    metric_suffix_of,
    validate_metrics,
    validate_report,
    write_json_atomic,
)
from repro.soak.trend import load_trend

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
REPORTS_DIR = REPO_ROOT / "benchmarks" / "reports"


# -- suffix discipline -----------------------------------------------------------


@pytest.mark.parametrize(
    ("key", "suffix"),
    [
        ("p99_latency_ms", "ms"),
        ("cold_wall_s", "s"),
        ("throughput_per_s", "per_s"),
        ("mean_error_m", "m"),
        ("speedup_ratio", "ratio"),
        ("shed_fraction", "fraction"),
        ("max_accumulator_diff_abs", "abs"),
        ("virtual_hours", "hours"),
        ("speedup", None),
        ("load", None),
        ("coverage", None),
    ],
)
def test_metric_suffix_of(key, suffix):
    assert metric_suffix_of(key) == suffix


def test_validate_metrics_accepts_suffixed_floats_and_bare_ints():
    validate_metrics(
        {
            "offered": 500,
            "identical": True,
            "p99_latency_ms": 2.3,
            "nested": {"rows": [{"speedup_ratio": 5.0, "grid_nodes": 70}]},
        }
    )


def test_validate_metrics_names_the_dotted_path():
    with pytest.raises(
        ReportError, match=r"metrics\.nested\.rows\[1\]\.speedup"
    ):
        validate_metrics(
            {"nested": {"rows": [{"ok_s": 1.0}, {"speedup": 5.0}]}}
        )


# -- envelope --------------------------------------------------------------------


def test_bench_report_builds_a_valid_envelope():
    doc = bench_report("demo", {"wall_s": 1.0}, {"load": 4.0})
    validate_report(doc, name="demo")
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    assert doc["kind"] == "bench"


def test_context_is_exempt_from_the_suffix_discipline():
    bench_report("demo", {"wall_s": 1.0}, {"load": 4.0, "floors": 2.5})


def test_unsuffixed_metric_is_rejected_at_build_time():
    with pytest.raises(ReportError, match="speedup"):
        bench_report("demo", {"speedup": 5.0})


def test_name_mismatch_is_rejected():
    doc = bench_report("demo", {"wall_s": 1.0})
    with pytest.raises(ReportError, match="does not match"):
        validate_report(doc, name="other")


def test_newer_schema_version_is_rejected():
    doc = bench_report("demo", {"wall_s": 1.0})
    doc["schema_version"] = REPORT_SCHEMA_VERSION + 1
    with pytest.raises(ReportError, match="newer"):
        validate_report(doc)


def test_unknown_kind_is_rejected():
    doc = bench_report("demo", {"wall_s": 1.0})
    doc["kind"] = "vibes"
    with pytest.raises(ReportError, match="vibes"):
        validate_report(doc)


# -- committed report sweep ------------------------------------------------------


def _committed_reports():
    return sorted(REPORTS_DIR.glob("BENCH_*.json")) + sorted(
        REPORTS_DIR.glob("SOAK_TREND.json")
    )


def test_the_sweep_actually_sees_the_committed_reports():
    names = [path.name for path in _committed_reports()]
    assert "BENCH_serve.json" in names
    assert "SOAK_TREND.json" in names


@pytest.mark.parametrize(
    "path", _committed_reports(), ids=lambda p: p.name
)
def test_every_committed_report_validates(path):
    doc = load_report(path)
    assert doc["schema_version"] <= REPORT_SCHEMA_VERSION
    # Committed files must be in canonical serialization: rewriting
    # them must be a byte-level no-op.
    assert canonical_json(doc) == path.read_text(encoding="utf-8")


# -- gitignore: reports commit without -f ----------------------------------------


def _is_ignored(relative: str) -> bool:
    result = subprocess.run(
        ["git", "check-ignore", "-q", relative],
        cwd=REPO_ROOT,
        capture_output=True,
    )
    return result.returncode == 0


def test_committed_report_names_are_not_ignored():
    assert not _is_ignored("benchmarks/reports/BENCH_anything.json")
    assert not _is_ignored("benchmarks/reports/SOAK_TREND.json")


def test_generated_artifacts_stay_ignored():
    assert _is_ignored("benchmarks/reports/serve.txt")
    assert _is_ignored("benchmarks/reports/manifests/anything.json")
    assert _is_ignored("benchmarks/reports/whatever.trace.jsonl")


# -- atomic writes ---------------------------------------------------------------


def test_write_json_atomic_leaves_no_tmp_and_is_canonical(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    doc = bench_report("demo", {"wall_s": 1.0})
    write_json_atomic(path, doc)
    assert not list(tmp_path.glob("*.tmp"))
    assert path.read_text(encoding="utf-8") == canonical_json(doc)
    assert load_report(path) == json.loads(canonical_json(doc))


def test_failed_write_leaves_the_existing_report_intact(tmp_path):
    path = tmp_path / "BENCH_demo.json"
    write_json_atomic(path, bench_report("demo", {"wall_s": 1.0}))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        # NaN is rejected by the canonical serializer *before* the
        # target is touched.
        write_json_atomic(path, {"bad_s": float("nan")})
    with pytest.raises(TypeError):
        write_json_atomic(path, {"bad": object()})
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


# -- hostile files: the loaders raise ReportError and nothing else ---------------

LOADERS = pytest.mark.parametrize(
    "loader", [load_report, load_trend], ids=["load_report", "load_trend"]
)


def _trend_text(metric: float) -> str:
    """A soak trend that both loaders accept, save for ``metric``."""
    entry = {"key": {}, "counts": {}, "metrics": {"p99_latency_ms": metric}}
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "soak_trend",
        "name": "soak_trend",
        "entries": [entry],
    }
    return json.dumps(doc)


@LOADERS
@pytest.mark.parametrize(
    "payload",
    [
        b"\xff\xfe{}",
        b"[" * 100_000,
        _trend_text(float("nan")).encode(),
        _trend_text(float("inf")).encode(),
        _trend_text(1.0).replace("1.0", "1e999").encode(),
    ],
    ids=["utf16_bom", "deep_nesting", "nan", "infinity", "overflow"],
)
def test_hostile_file_is_a_report_error(loader, payload, tmp_path):
    path = tmp_path / "SOAK_TREND.json"
    path.write_bytes(payload)
    with pytest.raises(ReportError):
        loader(path)


def test_nesting_just_inside_the_parser_limit_is_a_report_error(tmp_path):
    """A report that parses but nests too deeply to validate fails
    typed too, wherever the caller's stack depth puts that window."""
    path = tmp_path / "report.json"
    for depth in range(sys.getrecursionlimit(), 0, -1):
        nested = "[" * depth + "]" * depth
        path.write_text(
            '{"schema_version": 1, "kind": "bench", "name": "x", '
            f'"metrics": {{"a": {nested}}}}}',
            encoding="utf-8",
        )
        try:
            load_report(path)
        except ReportError:
            continue
        break  # this depth validated, so every shallower one does too


#: Keys of the report envelope, so generated documents reach the
#: validator's branches instead of failing at the first lookup.
ENVELOPE_KEYS = st.sampled_from(
    ["schema_version", "kind", "name", "metrics", "entries", "key", "counts"]
)
json_documents = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(["bench", "soak_trend"])
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(ENVELOPE_KEYS | st.text(max_size=6), children, max_size=5),
    max_leaves=16,
).map(lambda doc: json.dumps(doc).encode())


@given(payload=st.binary(max_size=64) | json_documents)
def test_loaders_raise_only_report_errors(payload, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "SOAK_TREND.json"
    path.write_bytes(payload)
    for loader in (load_report, load_trend):
        try:
            loader(path)
        except ReportError:
            pass
