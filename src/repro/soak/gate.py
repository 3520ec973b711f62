"""The soak regression ratchet: diff a run against the committed trend.

:func:`run_gate` compares the newest trend entry (or an explicit
current entry) against the most recent *earlier* entry with the same
parameter key and fails on any watched metric that regressed by
strictly more than its tolerance fraction. Direction matters —
throughput regresses downward, latency and error regress upward — and
the failure message names the metric and the percentage, so a CI log
reads "p99_latency_ms regressed 30.0% (tolerance 10.0%)" rather than
a bare exit code.

Edge semantics, pinned by tests:

* **Bootstrap**: no earlier entry shares the key (first soak of a new
  configuration, or a brand-new trend file) — the gate passes and says
  so. A ratchet with no baseline has nothing to ratchet.
* **Boundary**: a regression of *exactly* the tolerance passes; only
  strictly-greater regressions fail. The threshold is a contract, not
  a fuzzy zone.
* **Improvement**: a metric moving the good direction can never fail,
  however large the move.
* **Corruption**: an unreadable trend file is a
  :class:`~repro.errors.TrendError` naming the broken entry's index —
  exit code 2, distinct from a genuine regression's 1.

``python -m repro.soak gate`` is the CI entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import GateError, ReportError
from repro.obs.reports import read_json
from repro.soak import trend as trend_mod

#: Default allowed regression, as a fraction of the baseline value.
DEFAULT_TOLERANCE_FRACTION = 0.10

#: Watched metric -> direction. ``"higher"`` means larger is better
#: (regression = drop); ``"lower"`` means smaller is better
#: (regression = rise).
WATCHED_METRICS: Dict[str, str] = {
    "throughput_per_s": "higher",
    "p99_latency_ms": "lower",
    "mean_error_m": "lower",
}


@dataclass(frozen=True)
class GateCheck:
    """One watched metric's verdict."""

    metric: str
    direction: str
    baseline: float
    current: float
    #: Signed fractional change in the *bad* direction; negative means
    #: the metric improved.
    regression_fraction: float
    tolerance_fraction: float
    passed: bool

    @property
    def message(self) -> str:
        """Human-readable verdict line."""
        pct = self.regression_fraction * 100.0
        tol = self.tolerance_fraction * 100.0
        if self.regression_fraction > 0:
            verb = "regressed" if not self.passed else "drifted"
            return (
                f"{self.metric} {verb} {pct:.1f}% "
                f"(tolerance {tol:.1f}%): "
                f"{self.baseline:.6g} -> {self.current:.6g}"
            )
        if self.regression_fraction == 0:
            return f"{self.metric} unchanged at {self.current:.6g}"
        return (
            f"{self.metric} improved {-pct:.1f}%: "
            f"{self.baseline:.6g} -> {self.current:.6g}"
        )


@dataclass(frozen=True)
class GateReport:
    """The whole gate run: verdict, checks, and why."""

    passed: bool
    bootstrap: bool
    key: Dict[str, Any]
    checks: Tuple[GateCheck, ...]
    reason: str

    @property
    def failures(self) -> Tuple[GateCheck, ...]:
        """Checks that failed."""
        return tuple(check for check in self.checks if not check.passed)

    def render(self) -> str:
        """Multi-line report for CI logs."""
        lines = [self.reason]
        lines.extend(f"  {check.message}" for check in self.checks)
        return "\n".join(lines)


def _regression_fraction(
    direction: str, baseline: float, current: float
) -> float:
    """Fractional change in the bad direction (negative = improved)."""
    scale = max(abs(baseline), 1e-12)
    delta = (current - baseline) / scale
    return -delta if direction == "higher" else delta


def compare_entries(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    tolerances: Optional[Mapping[str, float]] = None,
) -> Tuple[GateCheck, ...]:
    """Check every watched metric of ``current`` against ``baseline``."""
    tolerances = dict(tolerances or {})
    checks: List[GateCheck] = []
    for metric, direction in sorted(WATCHED_METRICS.items()):
        if metric not in baseline["metrics"]:
            raise GateError(
                f"baseline entry has no watched metric {metric!r}"
            )
        if metric not in current["metrics"]:
            raise GateError(
                f"current entry has no watched metric {metric!r}"
            )
        base = float(baseline["metrics"][metric])
        curr = float(current["metrics"][metric])
        tolerance = float(
            tolerances.get(metric, DEFAULT_TOLERANCE_FRACTION)
        )
        if tolerance < 0:
            raise GateError(
                f"tolerance for {metric!r} must be non-negative"
            )
        regression = _regression_fraction(direction, base, curr)
        checks.append(
            GateCheck(
                metric=metric,
                direction=direction,
                baseline=base,
                current=curr,
                regression_fraction=regression,
                tolerance_fraction=tolerance,
                # Exactly-at-threshold passes: strict inequality.
                passed=regression <= tolerance,
            )
        )
    return tuple(checks)


def run_gate(
    trend_path: "str | Path",
    current: Optional[Mapping[str, Any]] = None,
    tolerances: Optional[Mapping[str, float]] = None,
) -> GateReport:
    """Gate ``current`` (default: the trend's newest entry) on the trend.

    The baseline is the most recent entry *before* the current one
    whose parameter ``key`` matches exactly — smoke and full-horizon
    lineages never cross-compare. No such entry means bootstrap: the
    gate passes with an explicit reason instead of failing a run that
    has nothing to be compared against.
    """
    doc = trend_mod.load_trend(trend_path)
    entries: List[Dict[str, Any]] = doc["entries"]
    if current is None:
        if not entries:
            return GateReport(
                passed=True,
                bootstrap=True,
                key={},
                checks=(),
                reason=(
                    f"PASS (bootstrap): trend file {trend_path} has no "
                    "entries yet; nothing to gate against"
                ),
            )
        current = entries[-1]
        before_index: Optional[int] = len(entries) - 1
    else:
        trend_mod.validate_entry(current, index=-1)
        before_index = None
    key = dict(current["key"])
    baseline = trend_mod.matching_baseline(doc, key, before_index)
    if baseline is None:
        return GateReport(
            passed=True,
            bootstrap=True,
            key=key,
            checks=(),
            reason=(
                "PASS (bootstrap): no earlier trend entry matches this "
                f"run's key {json.dumps(key, sort_keys=True)}"
            ),
        )
    checks = compare_entries(baseline, current, tolerances)
    failures = [check for check in checks if not check.passed]
    if failures:
        worst = max(failures, key=lambda c: c.regression_fraction)
        reason = f"FAIL: {worst.message}"
    else:
        reason = (
            f"PASS: {len(checks)} watched metric(s) within tolerance "
            "of the committed baseline"
        )
    return GateReport(
        passed=not failures,
        bootstrap=False,
        key=key,
        checks=checks,
        reason=reason,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI for ``python -m repro.soak gate``.

    Exit codes: 0 pass (including bootstrap), 1 regression, 2 unusable
    inputs (corrupt trend or current file, bad tolerance, missing
    current file).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.soak gate",
        description=(
            "Diff a soak run against the committed trend and fail on "
            "regressions beyond tolerance."
        ),
    )
    parser.add_argument(
        "--trend",
        default=trend_mod.TREND_FILENAME,
        help="path to the committed SOAK_TREND.json",
    )
    parser.add_argument(
        "--current",
        default=None,
        help=(
            "path to a JSON file holding one trend entry to gate "
            "(default: the trend's newest entry)"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE_FRACTION,
        help="allowed regression fraction for every watched metric",
    )
    args = parser.parse_args(argv)
    current: Optional[Dict[str, Any]] = None
    try:
        if args.current is not None:
            current_path = Path(args.current)
            if not current_path.exists():
                raise GateError(
                    f"current entry file not found: {current_path}"
                )
            current = read_json(current_path)
        tolerances = {
            metric: args.tolerance for metric in WATCHED_METRICS
        }
        report = run_gate(args.trend, current, tolerances)
    except (ReportError, GateError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.passed else 1
