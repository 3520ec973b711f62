"""Flag interactions (--select/--ignore/--baseline), SARIF, portability."""

from __future__ import annotations

import json

from repro.analysis import AnalysisConfig, analyze_source
from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    portable_key,
    portable_path,
    write_baseline,
)
from repro.analysis.cli import main
from repro.analysis.findings import Finding
from repro.analysis.reporting import render_sarif

#: Triggers both an R-family (unseeded RNG) and an A-family finding.
BROKEN = "import numpy as np\nrng = np.random.default_rng()\n"


class TestFlagPrecedence:
    """--select narrows, --ignore prunes the selection, --baseline
    suppresses whatever survives — strictly in that order."""

    def test_ignore_prunes_within_selection(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        code = main([str(tmp_path), "--select", "R,A", "--ignore", "A"])
        out = capsys.readouterr().out
        assert code == 1
        assert "R301" in out and "A403" not in out

    def test_ignore_beats_select_on_same_code(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        code = main([str(tmp_path), "--select", "R301", "--ignore", "R301"])
        assert code == 0
        assert "no findings" in capsys.readouterr().out

    def test_baseline_applies_after_selection(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        baseline = tmp_path / "baseline.json"
        # Snapshot everything, then re-run narrowed: the selected
        # finding is in the baseline, so the run is clean.
        assert main([str(tmp_path), "--write-baseline", str(baseline)]) == 0
        assert (
            main([str(tmp_path), "--select", "R", "--baseline", str(baseline)])
            == 0
        )
        capsys.readouterr()

    def test_write_baseline_respects_filters(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        baseline = tmp_path / "baseline.json"
        # A baseline written under --select A must not grandfather the
        # R-family finding a later unfiltered run surfaces.
        assert main(
            [str(tmp_path), "--select", "A", "--write-baseline", str(baseline)]
        ) == 0
        keys = load_baseline(str(baseline))
        assert keys and all(key.startswith("A") for key in keys)
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 1
        assert "R301" in capsys.readouterr().out

    def test_baseline_and_ignore_compose(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        baseline = tmp_path / "baseline.json"
        assert main(
            [str(tmp_path), "--select", "R", "--write-baseline", str(baseline)]
        ) == 0
        code = main(
            [str(tmp_path), "--ignore", "A", "--baseline", str(baseline)]
        )
        assert code == 0
        capsys.readouterr()


class TestSarifReport:
    def _findings(self, tmp_path):
        (tmp_path / "bad.py").write_text(BROKEN)
        source = (tmp_path / "bad.py").read_text()
        return analyze_source(
            source, path=str(tmp_path / "bad.py"), config=AnalysisConfig()
        )

    def test_document_shape(self, tmp_path):
        document = json.loads(render_sarif(self._findings(tmp_path)))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        assert run["results"]

    def test_rule_index_consistent_with_catalog(self, tmp_path):
        run = json.loads(render_sarif(self._findings(tmp_path)))["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_columns_are_one_based(self):
        finding = Finding("x.py", 3, 0, "U101", "msg")
        region = json.loads(render_sarif([finding]))["runs"][0]["results"][0][
            "locations"
        ][0]["physicalLocation"]["region"]
        assert region == {"startLine": 3, "startColumn": 1}

    def test_uris_are_posix_and_relative(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        finding = Finding(str(tmp_path / "pkg" / "mod.py"), 1, 0, "U101", "m")
        location = json.loads(render_sarif([finding]))["runs"][0]["results"][
            0
        ]["locations"][0]["physicalLocation"]["artifactLocation"]
        assert location["uri"] == "pkg/mod.py"
        assert location["uriBaseId"] == "SRCROOT"

    def test_severity_maps_to_level(self):
        warn = Finding("x.py", 1, 0, "U106", "m", severity="warning")
        result = json.loads(render_sarif([warn]))["runs"][0]["results"][0]
        assert result["level"] == "warning"

    def test_empty_report_is_valid(self):
        run = json.loads(render_sarif([]))["runs"][0]
        assert run["results"] == []
        assert run["tool"]["driver"]["rules"] == []

    def test_cli_format_sarif(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        assert main([str(tmp_path), "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"]


class TestBaselinePortability:
    def test_backslashes_normalize(self):
        assert portable_path("src\\repro\\dsp\\units.py") == "src/repro/dsp/units.py"

    def test_absolute_under_cwd_becomes_relative(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert portable_path(str(tmp_path / "a" / "b.py")) == "a/b.py"

    def test_absolute_outside_cwd_stays_absolute(self, monkeypatch, tmp_path):
        inner = tmp_path / "inner"
        inner.mkdir()
        monkeypatch.chdir(inner)
        assert portable_path(str(tmp_path / "x.py")) == (tmp_path / "x.py").as_posix()

    def test_absolute_and_relative_paths_share_a_key(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        absolute = Finding(str(tmp_path / "m.py"), 1, 0, "U101", "msg")
        relative = Finding("m.py", 9, 0, "U101", "msg")
        assert portable_key(absolute) == portable_key(relative)

    def test_baseline_written_absolute_suppresses_relative(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        absolute = Finding(str(tmp_path / "m.py"), 1, 0, "U101", "msg")
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), [absolute])
        relative = Finding("m.py", 4, 0, "U101", "msg")
        assert apply_baseline([relative], load_baseline(str(baseline))) == []

    def test_v1_baseline_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BROKEN)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "keys": []}))
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 2
        assert "cannot load baseline" in capsys.readouterr().err
