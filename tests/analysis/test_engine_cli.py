"""Engine plumbing: file discovery, filtering, baselines, CLI, reporters."""

from __future__ import annotations

import json

import pytest

from repro.analysis import AnalysisConfig, analyze_paths, analyze_source
from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.cli import main
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import all_rules

BROKEN = "import numpy as np\nrng = np.random.default_rng()\n"
CLEAN = '"""Docstring."""\nfrom __future__ import annotations\nX = 1\n'


class TestSelection:
    def test_select_restricts_to_prefix(self):
        found = analyze_source(BROKEN, config=AnalysisConfig(select=("R",)))
        assert {f.code for f in found} == {"R301"}

    def test_ignore_removes_codes(self):
        found = analyze_source(
            BROKEN, config=AnalysisConfig(select=("R", "A"), ignore=("A40",))
        )
        assert {f.code for f in found} == {"R301"}

    def test_rule_registry_covers_all_families(self):
        families = {rule.code[0] for rule in all_rules()}
        assert {"U", "R", "A"} <= families


class TestAnalyzePaths:
    def test_directory_walk_and_sorted_findings(self, tmp_path):
        (tmp_path / "a.py").write_text(BROKEN)
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text(CLEAN)
        findings = analyze_paths([str(tmp_path)], AnalysisConfig(select=("R",)))
        assert [f.code for f in findings] == ["R301"]
        assert findings[0].path.endswith("a.py")

    def test_syntax_error_becomes_finding_not_crash(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        findings = analyze_paths([str(tmp_path)])
        assert [f.code for f in findings] == ["E999"]

    def test_exclude_paths(self, tmp_path):
        (tmp_path / "skipme.py").write_text(BROKEN)
        findings = analyze_paths(
            [str(tmp_path)], AnalysisConfig(exclude_paths=("*skipme*",))
        )
        assert findings == []


class TestBaseline:
    def test_roundtrip_suppresses_known_findings(self, tmp_path):
        findings = analyze_source(BROKEN, config=AnalysisConfig(select=("R",)))
        baseline_file = tmp_path / "baseline.json"
        write_baseline(str(baseline_file), findings)
        keys = load_baseline(str(baseline_file))
        assert apply_baseline(findings, keys) == []

    def test_new_findings_survive_baseline(self, tmp_path):
        findings = analyze_source(BROKEN, config=AnalysisConfig(select=("R",)))
        baseline_file = tmp_path / "baseline.json"
        write_baseline(str(baseline_file), [])
        keys = load_baseline(str(baseline_file))
        assert apply_baseline(findings, keys) == findings

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_baseline(str(bad))


class TestReporters:
    def test_text_reporter_includes_location_and_tally(self):
        findings = analyze_source(BROKEN, path="x.py", config=AnalysisConfig(select=("R",)))
        report = render_text(findings)
        assert "x.py:2:" in report and "R301" in report and "1 finding" in report

    def test_text_reporter_clean(self):
        assert render_text([]) == "reprolint: no findings"

    def test_json_reporter_parses(self):
        findings = analyze_source(BROKEN, path="x.py", config=AnalysisConfig(select=("R",)))
        payload = json.loads(render_json(findings))
        assert payload["finding_count"] == 1
        assert payload["findings"][0]["code"] == "R301"


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_one_with_coded_findings_on_violations(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R301" in out and "A403" in out

    def test_format_json(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        assert main([str(tmp_path), "--format", "json", "--select", "R"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["finding_count"] == 1

    def test_baseline_flow_via_cli(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        baseline = tmp_path / "baseline.json"
        assert main([str(tmp_path), "--write-baseline", str(baseline)]) == 0
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        capsys.readouterr()

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path), "--baseline", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_unknown_select_code_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert main([str(tmp_path), "--select", "ZZZ"]) == 2
        assert "matches no registered rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("U101", "U106", "R301", "A401"):
            assert code in out

    def test_list_rules_is_the_per_file_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        codes = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert len(codes) == 22 and {"R312", "P701"} <= set(codes)
        removed = ("U110", "U111", "U112", "U113", "U114", "U115", "R310", "R311", "R313")
        assert not [code for code in codes if code.startswith(removed + ("P702", "P703"))]
