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
    """One whole-package lint shared by the gate tests (a ~3 s pass).

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
    rule it ships."""
    findings = analyze_paths([str(REPO_SRC / "analysis")])
    assert findings == [], "\n" + render_text(findings)


def test_flow_rules_are_exercised_by_the_gate(tmp_path):
    """The zero-findings gate must run the rules that ban entropy,
    clock reads, set-order walks and module-state mutation where they
    happen: a seeded module has to surface R303, O501, R312 and P701."""
    source = (
        "import os\n"
        "from repro.obs import wall_clock_s\n"
        "_SEEN = set()\n"
        "def seeds(tags):\n"
        "    salt = int.from_bytes(os.urandom(4), 'little')\n"
        "    _SEEN.update(tags)\n"
        "    return [salt ^ int(wall_clock_s()) for tag in set(tags)]\n"
    )
    (tmp_path / "bad.py").write_text(source)
    codes = {f.code for f in analyze_paths([str(tmp_path)])}
    assert {"R303", "O501", "R312", "P701"} <= codes
