"""The ``python -m repro.scenarios`` front end."""

import pytest

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError, GeometryError
from repro.scenarios import cli, registry, toml_codec
from repro.scenarios.cli import (
    SMOKE_MIN_RESOLUTION_M,
    SMOKE_MIN_SPACING_M,
    main,
    parse_set_overrides,
    smoke_variant,
    validate_files,
)
from repro.scenarios.spec import Scenario


class TestParseSetOverrides:
    def test_json_values(self):
        parsed = parse_set_overrides(
            ["traffic.load=8.0", "traffic.use_gen2_mac=false"]
        )
        assert parsed == {"traffic.load": 8.0, "traffic.use_gen2_mac": False}

    def test_exponent_form_is_numeric(self):
        assert parse_set_overrides(["radio.center_frequency_hz=920e6"]) == {
            "radio.center_frequency_hz": 920e6
        }

    def test_plain_string_fallback(self):
        assert parse_set_overrides(["name=my_world"]) == {"name": "my_world"}

    @pytest.mark.parametrize("item", ["traffic.load", "=8.0"])
    def test_malformed_item_rejected(self, item):
        with pytest.raises(ConfigurationError):
            parse_set_overrides([item])


class TestSmokeVariant:
    def test_floors_fine_scenarios(self):
        fine = registry.get("conveyor_flow_through")
        assert fine.trajectory.spacing_m < SMOKE_MIN_SPACING_M
        smoke = smoke_variant(fine)
        assert smoke.trajectory.spacing_m == SMOKE_MIN_SPACING_M
        assert smoke.grid.resolution_m >= SMOKE_MIN_RESOLUTION_M

    def test_smoke_spacing_samples_above_the_spatial_nyquist_rate(self):
        wavelength_m = SPEED_OF_LIGHT / registry.get("rf_bench").radio.center_frequency_hz
        assert SMOKE_MIN_SPACING_M < wavelength_m / 2

    def test_rf_bench_smoke_replicates_localize(self, capsys):
        assert main(["run", "rf_bench", "--smoke", "--replicates", "4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        errors_m = [float(row.split(" err=")[1].split("m ")[0]) for row in rows]
        assert len(errors_m) == 4
        assert max(errors_m) <= 0.05, rows

    def test_never_refines_coarse_scenarios(self):
        coarse = Scenario(name="coarse").with_overrides(
            {"trajectory.spacing_m": 0.5, "grid.resolution_m": 0.4}
        )
        smoke = smoke_variant(coarse)
        assert smoke.trajectory.spacing_m == 0.5
        assert smoke.grid.resolution_m == 0.4


class TestListCommand:
    def test_lists_every_shipped_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out


class TestShowCommand:
    def test_toml_output_is_the_canonical_spec(self, capsys):
        assert main(["show", "rf_bench"]) == 0
        out = capsys.readouterr().out
        assert Scenario.from_dict(toml_codec.loads(out)) == registry.get(
            "rf_bench"
        )

    def test_json_output_parses(self, capsys):
        import json

        assert main(["show", "outdoor_yard", "--format", "json"]) == 0
        loaded = json.loads(capsys.readouterr().out)
        assert Scenario.from_dict(loaded) == registry.get("outdoor_yard")

    def test_unknown_name_exits_via_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["show", "nope"])
        assert exit_info.value.code == 2
        assert "nope" in capsys.readouterr().err


class TestValidateCommand:
    def test_shipped_library_is_valid(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        n = len(registry.names())
        assert f"{n}/{n} scenario file(s) valid" in out
        assert "FAIL" not in out

    def test_stem_mismatch_fails(self, tmp_path, capsys):
        bad = tmp_path / "wrong_stem.toml"
        bad.write_text(
            toml_codec.dumps(registry.get("rf_bench").to_dict())
        )
        assert main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "stem" in out

    def test_unparseable_file_fails(self, tmp_path):
        bad = tmp_path / "broken.toml"
        bad.write_text("name = \n")
        problems = validate_files([bad])
        assert len(problems) == 1
        assert "broken.toml" in problems[0]

    def test_good_file_passes(self, tmp_path):
        good = tmp_path / "rf_bench.toml"
        good.write_text(
            toml_codec.dumps(registry.get("rf_bench").to_dict())
        )
        assert validate_files([good]) == []

    def test_flight_through_a_fixed_tag_fails(self, tmp_path):
        data = registry.get("rf_bench").to_dict()
        (tag,) = data["tags"]["positions_m"]
        data["trajectory"].update(x1_m=tag[0], y0_m=tag[1], y1_m=tag[1])
        bad = tmp_path / "rf_bench.toml"
        bad.write_text(toml_codec.dumps(data))
        (problem,) = validate_files([bad])
        assert "lies on the scenario's line flight" in problem


class TestRunCommand:
    def test_smoke_run_prints_one_row_per_replicate(self, capsys):
        code = main(
            [
                "run",
                "conveyor_flow_through",
                "--smoke",
                "--replicates",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith("r0: sessions=")
        assert "p99=" in out[0]

    def test_set_override_changes_the_run(self, capsys):
        base_args = ["run", "conveyor_flow_through", "--smoke",
                     "--replicates", "1"]
        assert main(base_args) == 0
        base = capsys.readouterr().out
        assert main(base_args + ["--set", "trajectory.spacing_m=0.5"]) == 0
        bumped = capsys.readouterr().out
        assert bumped != base

    def test_bad_set_item_exits_via_parser_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "rf_bench", "--set", "no_equals_sign"])
        assert exit_info.value.code == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_override_path_exits_via_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "rf_bench", "--set", "radio.nope_hz=1.0"])
        assert "nope_hz" in capsys.readouterr().err

    def test_typed_runtime_error_is_one_stderr_line(
        self, monkeypatch, capsys
    ):
        def trace_fails(*args, **kwargs):
            raise GeometryError("ray tracing requires distinct endpoints")

        monkeypatch.setattr(cli, "run_sweep", trace_fails)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "rf_bench", "--smoke"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "python -m repro.scenarios: error: "
            "ray tracing requires distinct endpoints"
        ]
