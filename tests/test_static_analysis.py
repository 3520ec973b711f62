"""Tier-1 gate: the whole package stays reprolint-clean.

This test is the enforcement point of the unit/determinism/API
contracts documented in DESIGN.md §8: any new finding anywhere under
``src/repro`` fails the suite with the rule code and location.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.baseline import apply_baseline, load_baseline, portable_key
from repro.analysis.reporting import render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src" / "repro"

#: Grandfathered findings (empty today). The baseline may only ratchet
#: down — new findings fail.
BASELINE_FILE = REPO_ROOT / "reprolint-baseline.json"


@pytest.fixture(scope="module")
def package_findings():
    """One whole-package lint shared by the gate tests (a ~4.5 s pass).

    Baseline keys are repo-relative, so the analysis runs from the
    repository root.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(REPO_ROOT)
        return analyze_paths([str(REPO_SRC)])


def test_source_tree_exists():
    assert REPO_SRC.is_dir(), f"expected package sources at {REPO_SRC}"


def test_package_has_zero_findings(monkeypatch, package_findings):
    monkeypatch.chdir(REPO_ROOT)  # baseline keys are repo-relative
    findings = apply_baseline(
        package_findings, load_baseline(str(BASELINE_FILE))
    )
    assert findings == [], "\n" + render_text(findings)


def test_baseline_only_suppresses_live_findings(monkeypatch, package_findings):
    """Every baseline key still matches a real finding — stale keys
    mean the site was fixed and the baseline must ratchet down."""
    monkeypatch.chdir(REPO_ROOT)
    live = {portable_key(f) for f in package_findings}
    stale = load_baseline(str(BASELINE_FILE)) - live
    assert stale == set(), f"stale baseline keys: {sorted(stale)}"


def test_gate_is_not_vacuous():
    """A seeded violation in a sibling tree must fail — proves the gate bites."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.py"
        bad.write_text("import numpy as np\nrng = np.random.default_rng()\n")
        findings = analyze_paths([tmp])
        assert any(f.code == "R301" for f in findings)


def test_analyzer_passes_its_own_rules():
    """Dogfood: the analyzer package itself stays clean under every
    rule it ships, including the whole-program U11x/R31x/P70x ones."""
    findings = analyze_paths([str(REPO_SRC / "analysis")])
    assert findings == [], "\n" + render_text(findings)


def test_flow_rules_are_exercised_by_the_gate():
    """The zero-findings gate must actually run the dataflow rules —
    a seeded cross-function unit bug has to surface as U111."""
    import tempfile

    source = (
        "def attenuate(power_dbm):\n"
        "    return power_dbm\n"
        "def g(distance_m):\n"
        "    return attenuate(distance_m)\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "bad.py").write_text(source)
        findings = analyze_paths([tmp])
        assert any(f.code == "U111" for f in findings)
