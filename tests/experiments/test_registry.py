"""Registry contract tests: lookup, parameter layering, observers.

The golden *tables* are covered by test_golden.py; here we pin the
registry's structural contracts — name/alias round-trips, the
golden-file naming convention, defaults/smoke/override layering, and
observer threading.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import registry
from repro.obs.observers import MetricsObserver, TraceObserver
from repro.runtime import RuntimeConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestLookup:
    def test_fourteen_specs_in_registry_order(self):
        assert len(registry.REGISTRY) == 14
        assert registry.names()[0] == "fig4_spectrum"
        assert registry.names()[-3] == "fleet_coverage"
        assert registry.names()[-2] == "soak"
        assert registry.names()[-1] == "ablations"

    def test_names_and_aliases_unique(self):
        assert len(set(registry.names())) == 14
        assert len(set(registry.aliases())) == 14

    def test_name_and_alias_resolve_to_same_spec(self):
        for spec in registry.REGISTRY:
            assert registry.get(spec.name) is spec
            assert registry.get(spec.alias) is spec

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            registry.get("fig99")
        with pytest.raises(ConfigurationError, match="fig4_spectrum"):
            registry.get("fig99")

    def test_every_spec_has_its_golden_file(self):
        for spec in registry.REGISTRY:
            assert (GOLDEN_DIR / spec.golden_filename).exists(), spec.name


class TestParameterLayering:
    def test_defaults_then_smoke_then_overrides(self):
        run = registry.run_experiment(
            "fig13",
            RuntimeConfig(),
            smoke=True,
            apertures_m=(1.0,),
            trials_per_point=2,
        )
        # smoke_overrides set trials_per_point=3; the explicit override
        # wins; untouched defaults (seed) survive.
        assert run.params["trials_per_point"] == 2
        assert run.params["apertures_m"] == (1.0,)
        assert run.params["seed"] == 0

    def test_smoke_overrides_apply_when_not_overridden(self):
        run = registry.run_experiment(
            "fig13", RuntimeConfig(), smoke=True, apertures_m=(1.0,)
        )
        assert run.params["trials_per_point"] == 3
        assert len(run.sweep.manifest.tasks) == 3

    def test_run_returns_outputs_and_sweep(self):
        run = registry.run_experiment(
            "fig14", RuntimeConfig(), distances_m=(5.0,), trials_per_point=1
        )
        assert run.spec.name == "fig14_distance"
        assert run.outputs and hasattr(run.outputs[0], "report")
        assert len(run.sweep.manifest.tasks) == 1


class TestObserversThreadThrough:
    def test_observers_reach_the_sweep(self):
        trace, metrics = TraceObserver(), MetricsObserver()
        run = registry.run_experiment(
            "fig13",
            RuntimeConfig(),
            observers=[trace, metrics],
            apertures_m=(1.0,),
            trials_per_point=1,
        )
        assert trace.manifests and trace.manifests[0].sweep == "fig13_aperture"
        counters = metrics.registry.counters
        assert counters["runtime.sweeps"] == 1.0
        assert counters["localization.sar.grid_points"] > 0
        assert run.sweep.manifest.tasks[0].spans is not None

    def test_observed_run_result_identical_to_plain_run(self):
        plain = registry.run_experiment(
            "fig13", RuntimeConfig(), apertures_m=(1.0,), trials_per_point=1
        )
        observed = registry.run_experiment(
            "fig13",
            RuntimeConfig(),
            observers=[TraceObserver(), MetricsObserver()],
            apertures_m=(1.0,),
            trials_per_point=1,
        )
        assert [o.report() for o in plain.outputs] == [
            o.report() for o in observed.outputs
        ]
        assert (
            plain.sweep.manifest.fingerprint()
            == observed.sweep.manifest.fingerprint()
        )
