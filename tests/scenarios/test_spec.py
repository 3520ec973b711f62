"""Scenario spec validation and lossless serialization."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.scenarios import registry, toml_codec
from repro.scenarios.spec import (
    FleetSpec,
    GridSpec,
    RadioSpec,
    ReaderSpec,
    RelaySpec,
    Scenario,
    TagLayoutSpec,
    TrafficSpec,
    TrajectorySpec,
    WallSpec,
)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="")

    def test_non_identifier_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="bad name!")

    def test_zero_length_wall_rejected(self):
        with pytest.raises(ConfigurationError):
            WallSpec(1.0, 1.0, 1.0, 1.0)

    def test_unknown_material_rejected(self):
        with pytest.raises(ConfigurationError):
            WallSpec(0.0, 0.0, 1.0, 0.0, material="adamantium")

    def test_nan_coordinate_rejected(self):
        with pytest.raises(ConfigurationError):
            WallSpec(float("nan"), 0.0, 1.0, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TrajectorySpec(kind="teleport")

    def test_random_segment_needs_lengths(self):
        with pytest.raises(ConfigurationError):
            TrajectorySpec(
                kind="random_segment", length_min_m=0.0, length_max_m=0.0
            )

    def test_fixed_tags_count_must_match(self):
        with pytest.raises(ConfigurationError):
            TagLayoutSpec(kind="fixed", n_tags=2, positions_m=((1.0, 1.0),))

    def test_reader_ring_needs_clip_rectangle(self):
        with pytest.raises(ConfigurationError):
            ReaderSpec(kind="random_ring", distance_min_m=1.0, distance_max_m=2.0)

    def test_band_edges_ordered(self):
        with pytest.raises(ConfigurationError):
            RadioSpec(band_low_hz=930e6, band_high_hz=900e6)

    def test_traffic_load_positive(self):
        with pytest.raises(ConfigurationError):
            TrafficSpec(load=0.0)

    def test_grid_needs_nonempty_rectangle(self):
        with pytest.raises(ConfigurationError):
            GridSpec(kind="fixed", x_min_m=2.0, x_max_m=1.0)

    def test_unknown_key_in_from_dict_rejected(self):
        with pytest.raises(ConfigurationError) as err:
            Scenario.from_dict({"name": "x", "florplan": {}})
        assert "florplan" in str(err.value)


class TestTagsOffTheFlight:
    """A fixed tag on a fixed line flight cannot stream: the pose on it
    traces a zero-length ray."""

    LINE = TrajectorySpec(kind="line", x0_m=0.0, y0_m=0.0, x1_m=1.0)

    def _tags(self, *positions):
        return TagLayoutSpec(
            kind="fixed", n_tags=len(positions), positions_m=positions
        )

    @pytest.mark.parametrize(
        "position", [(0.5, 0.0), (1.0, 0.0), (0.0, 0.0005)]
    )
    def test_tag_on_the_scenario_flight_rejected(self, position):
        with pytest.raises(ConfigurationError, match="line flight"):
            Scenario(
                name="x",
                trajectory=self.LINE,
                tags=self._tags((2.0, 2.0), position),
            )

    def test_tag_on_a_relay_flight_rejected(self):
        fleet = FleetSpec(
            relays=(
                RelaySpec(name="a"),
                RelaySpec(
                    name="b",
                    trajectory=TrajectorySpec(
                        kind="line", x0_m=0.0, y0_m=1.0, x1_m=1.0, y1_m=1.0
                    ),
                ),
            )
        )
        with pytest.raises(ConfigurationError, match="relay 'b'"):
            Scenario(
                name="x",
                trajectory=self.LINE,
                tags=self._tags((0.5, 1.0)),
                fleet=fleet,
            )

    def test_tag_beside_or_beyond_the_flight_accepted(self):
        Scenario(
            name="x",
            trajectory=self.LINE,
            tags=self._tags((0.5, 0.25), (1.5, 0.0), (-0.01, 0.0)),
        )


def _without_name(data):
    return {key: value for key, value in data.items() if key != "name"}


def _first_wall_without_x0(data):
    walls = [dict(wall) for wall in data["floorplan"]["walls"]]
    del walls[0]["x0_m"]
    return {**data, "floorplan": {**data["floorplan"], "walls": walls}}


class TestMissingRequiredKeys:
    """Decoding names the missing field with a typed error, whether the
    spec arrives as a mapping or as a file."""

    CASES = {
        "empty": (lambda data: {}, "name"),
        "no_name": (_without_name, "name"),
        "wall_without_x0": (_first_wall_without_x0, "x0_m"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_from_dict(self, case):
        strip, missing = self.CASES[case]
        data = strip(registry.get("cold_storage_aisles").to_dict())
        with pytest.raises(ConfigurationError, match=missing):
            Scenario.from_dict(data)

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("suffix", [".toml", ".json"])
    def test_load_file(self, case, suffix, tmp_path):
        strip, missing = self.CASES[case]
        data = strip(registry.get("cold_storage_aisles").to_dict())
        path = tmp_path / f"cold_storage_aisles{suffix}"
        path.write_text(
            toml_codec.dumps(data) if suffix == ".toml" else json.dumps(data),
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError, match=missing):
            registry.load_file(path)


def _drop_spec(**extra):
    return {"site": "channel.link", "action": "drop", **extra}


class TestMalformedFaultPlan:
    """A bad ``fault_plan`` section fails with a typed error naming the
    missing key or the wrong type, from a mapping or from a file."""

    CASES = {
        "spec_without_site": ({"specs": [{}]}, "site"),
        "specs_not_a_list": ({"specs": 5}, "'specs'"),
        "spec_not_a_table": ({"specs": [5]}, "fault spec must be"),
        "rate_not_a_number": ({"specs": [_drop_spec(rate="often")]}, "'rate'"),
        "trigger_n_not_an_int": (
            {"specs": [_drop_spec(trigger={"kind": "nth_call", "n": "3"})]},
            "'n'",
        ),
        "plan_not_a_table": (5, "'fault_plan'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_from_dict(self, case):
        plan, named = self.CASES[case]
        with pytest.raises(ConfigurationError, match=named):
            Scenario.from_dict({"name": "faulty", "fault_plan": plan})

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_load_file(self, case, tmp_path):
        plan, named = self.CASES[case]
        path = tmp_path / "faulty.toml"
        path.write_text(
            toml_codec.dumps({"name": "faulty", "fault_plan": plan}),
            encoding="utf-8",
        )
        with pytest.raises(ConfigurationError, match=named):
            registry.load_file(path)


class TestRoundTrip:
    @pytest.mark.parametrize("name", registry.names())
    def test_shipped_scenarios_round_trip_json(self, name):
        spec = registry.get(name)
        clone = Scenario.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_json() == spec.to_json()

    @pytest.mark.parametrize("name", registry.names())
    def test_shipped_scenarios_round_trip_toml(self, name):
        spec = registry.get(name)
        text = toml_codec.dumps(spec.to_dict())
        clone = Scenario.from_dict(toml_codec.loads(text))
        assert clone == spec
        assert toml_codec.dumps(clone.to_dict()) == text

    def test_fault_plan_round_trips(self):
        spec = Scenario(
            name="faulty",
            fault_plan=FaultPlan.single(
                "serve.ingest", "drop", rate=0.25
            ),
        )
        clone = Scenario.from_json(spec.to_json())
        assert clone == spec
        assert clone.fault_plan is not None
        assert clone.fault_plan.specs[0].rate == 0.25

    def test_sparse_dict_takes_defaults(self):
        spec = Scenario.from_dict({"name": "sparse"})
        assert spec.radio == RadioSpec()
        assert spec.traffic == TrafficSpec()
        assert spec.fault_plan is None


class TestWithOverrides:
    def test_dotted_override_applies(self):
        base = registry.get("conveyor_flow_through")
        bumped = base.with_overrides({"traffic.load": 8.0})
        assert bumped.traffic.load == 8.0
        assert bumped.grid == base.grid

    def test_override_is_non_destructive(self):
        base = registry.get("conveyor_flow_through")
        before = base.to_json()
        base.with_overrides({"grid.resolution_m": 0.5})
        assert base.to_json() == before

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.get("rf_bench").with_overrides({"radio.nope_hz": 1.0})

    def test_override_through_value_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.get("rf_bench").with_overrides(
                {"name.sub.key": 1.0}
            )

    def test_invalid_value_rejected_by_validation(self):
        with pytest.raises(ConfigurationError):
            registry.get("rf_bench").with_overrides({"traffic.load": -1.0})
