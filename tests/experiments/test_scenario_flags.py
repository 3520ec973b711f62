"""Precedence of the experiments CLI ``--scenario``/``--set`` flags.

The contract: spec defaults < smoke overrides < ``--scenario`` <
``--set``. ``scenario_override`` computes the ``scenario=`` keyword the
CLI threads into ``registry.run_experiment``; ``run_experiment`` itself
seeds ``params["scenario"]`` from the spec before applying smoke and
explicit overrides.
"""

from typing import Any, Dict, List

import pytest

from repro.errors import ConfigurationError
from repro.experiments import registry
from repro.experiments.cli import main, scenario_override
from repro.experiments.registry import ExperimentSpec
from repro.experiments.runner import ExperimentOutput
from repro.scenarios.spec import Scenario


def _spec_stub(captured: Dict[str, Any], **kwargs: Any) -> ExperimentSpec:
    """A no-work spec that records the params build_tasks receives."""

    def build_tasks(**params: Any) -> List[Any]:
        captured.update(params)
        return []

    return ExperimentSpec(
        name="stub_experiment",
        alias="stub",
        description="records its params",
        build_tasks=build_tasks,
        reduce=lambda results, params: list(results),
        render=lambda result: [ExperimentOutput("stub", [], [])],
        **kwargs,
    )


class TestParseSetOverrides:
    """``--set`` items reach the experiment's scenario typed.

    The parser itself is pinned in ``tests/scenarios/test_cli.py``; these
    send the same items through ``scenario_override``, which the strict
    decode rejects unless each value arrives with its field's type.
    """

    def test_values_parse_as_json(self):
        result = scenario_override(
            registry.get("serve"),
            None,
            ["traffic.load=8.0", "traffic.use_gen2_mac=false"],
        )
        assert result.traffic.load == 8.0
        assert result.traffic.use_gen2_mac is False

    def test_exponent_literals_are_numbers(self):
        result = scenario_override(
            registry.get("serve"), None, ["radio.center_frequency_hz=920e6"]
        )
        assert result.radio.center_frequency_hz == 920e6

    def test_unquoted_names_fall_back_to_strings(self):
        result = scenario_override(
            registry.get("serve"), None, ["description=cold aisle"]
        )
        assert result.description == "cold aisle"

    @pytest.mark.parametrize("item", ["traffic.load", "=1.0"])
    def test_malformed_items_rejected(self, item):
        with pytest.raises(ConfigurationError):
            scenario_override(registry.get("serve"), None, [item])


class TestScenarioOverride:
    def test_no_flags_means_spec_default_wins(self):
        spec = registry.get("serve")
        assert scenario_override(spec, None, []) is None

    def test_scenario_flag_passes_through_untouched(self):
        spec = registry.get("serve")
        assert scenario_override(spec, "outdoor_yard", []) == "outdoor_yard"

    def test_set_resolves_the_spec_default(self):
        spec = registry.get("serve")
        result = scenario_override(spec, None, ["traffic.load=8.0"])
        assert isinstance(result, Scenario)
        assert result.name == spec.scenario
        assert result.traffic.load == 8.0

    def test_set_applies_on_top_of_the_scenario_flag(self):
        spec = registry.get("serve")
        result = scenario_override(
            spec, "outdoor_yard", ["traffic.load=8.0"]
        )
        assert isinstance(result, Scenario)
        assert result.name == "outdoor_yard"
        assert result.traffic.load == 8.0

    def test_multi_scenario_experiment_rejects_the_flags(self):
        spec = registry.get("ablations")
        assert spec.scenario == ""
        with pytest.raises(ConfigurationError) as err:
            scenario_override(spec, "rf_bench", [])
        assert "ablations" in str(err.value)

    def test_bad_set_item_surfaces_as_configuration_error(self):
        spec = registry.get("serve")
        with pytest.raises(ConfigurationError):
            scenario_override(spec, None, ["no_equals_sign"])


class TestRunExperimentPrecedence:
    def test_spec_scenario_seeds_the_params(self):
        captured: Dict[str, Any] = {}
        spec = _spec_stub(captured, scenario="rf_bench")
        registry.run_experiment(spec)
        assert captured["scenario"] == "rf_bench"

    def test_smoke_override_beats_the_spec_default(self):
        captured: Dict[str, Any] = {}
        spec = _spec_stub(
            captured,
            scenario="rf_bench",
            smoke_overrides={"scenario": "los_aisle"},
        )
        registry.run_experiment(spec, smoke=True)
        assert captured["scenario"] == "los_aisle"

    def test_explicit_override_beats_smoke_and_default(self):
        captured: Dict[str, Any] = {}
        spec = _spec_stub(
            captured,
            scenario="rf_bench",
            smoke_overrides={"scenario": "los_aisle"},
        )
        registry.run_experiment(spec, smoke=True, scenario="outdoor_yard")
        assert captured["scenario"] == "outdoor_yard"

    def test_spec_without_scenario_injects_nothing(self):
        captured: Dict[str, Any] = {}
        spec = _spec_stub(captured)
        registry.run_experiment(spec)
        assert "scenario" not in captured

    def test_every_single_scenario_experiment_names_a_shipped_spec(self):
        from repro.scenarios import registry as scenario_registry

        shipped = scenario_registry.names()
        for spec in registry.REGISTRY:
            if spec.scenario:
                assert spec.scenario in shipped, spec.alias


@pytest.mark.parametrize(
    "item, dotted",
    [
        ("traffic.use_gen2_mac=False", "scenario.traffic.use_gen2_mac"),
        ("traffic=null", "scenario.traffic"),
    ],
)
def test_run_rejects_a_set_value_its_field_cannot_take(item, dotted, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "serve", "--smoke", "--set", item])
    assert exit_info.value.code == 2
    assert f"error: {dotted}:" in capsys.readouterr().err
