"""API-contract rules: annotations, module hygiene, foot-guns."""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisConfig, analyze_source

API_ONLY = AnalysisConfig(select=("A",))

#: Minimal module preamble that satisfies A402/A403, so individual
#: tests can focus on one rule at a time.
CLEAN_HEADER = '"""Docstring."""\nfrom __future__ import annotations\n'


def codes(source: str, header: str = CLEAN_HEADER, path: str = "<string>") -> list:
    return [
        f.code
        for f in analyze_source(
            header + textwrap.dedent(source), path=path, config=API_ONLY
        )
    ]


#: A406 only bites under the experiments tree.
EXPERIMENT_PATH = "src/repro/experiments/fig99_example.py"


class TestMissingReturnAnnotation:
    def test_unannotated_public_function_is_flagged(self):
        assert "A401" in codes("def convert(x): ...")

    def test_annotated_public_function_passes(self):
        assert codes("def convert(x: float) -> float: ...") == []

    def test_private_function_is_skipped(self):
        assert codes("def _convert(x): ...") == []

    def test_public_method_is_flagged(self):
        src = """
        class Relay:
            def gain(self): ...
        """
        assert "A401" in codes(src)

    def test_nested_function_is_skipped(self):
        src = """
        def outer() -> None:
            def inner(): ...
        """
        assert codes(src) == []


class TestModuleHygiene:
    def test_missing_future_import_is_flagged(self):
        assert "A402" in codes("x = 1", header='"""Docstring."""\n')

    def test_missing_docstring_is_flagged(self):
        assert "A403" in codes(
            "x = 1", header="from __future__ import annotations\n"
        )

    def test_clean_module_passes(self):
        assert codes("x = 1") == []


class TestBareExcept:
    def test_bare_except_is_flagged(self):
        src = """
        try:
            x = 1
        except:
            pass
        """
        assert "A404" in codes(src)

    def test_typed_except_passes(self):
        src = """
        try:
            x = 1
        except ValueError:
            pass
        """
        assert codes(src) == []


class TestExperimentsBypassScenarioRegistry:
    def test_inline_grid_in_experiment_is_flagged(self):
        src = """
        from repro.localization.grid import Grid2D

        def build() -> None:
            Grid2D(-0.5, 4.0, 0.2, 3.0, 0.1)
        """
        assert "A406" in codes(src, path=EXPERIMENT_PATH)

    def test_aliased_import_is_still_flagged(self):
        src = """
        from repro.mobility.trajectory import LineTrajectory as LT

        def build() -> None:
            LT((0.0, 0.0), (3.5, 0.0))
        """
        assert "A406" in codes(src, path=EXPERIMENT_PATH)

    def test_module_attribute_call_is_flagged(self):
        src = """
        import repro.localization.grid

        def build() -> None:
            repro.localization.grid.Grid2D(-0.5, 4.0, 0.2, 3.0, 0.1)
        """
        assert "A406" in codes(src, path=EXPERIMENT_PATH)

    def test_scenario_compiler_path_passes(self):
        src = """
        from repro.scenarios import registry as scenario_registry
        from repro.scenarios.compiler import generate_workload

        def build() -> None:
            spec = scenario_registry.resolve("conveyor_flow_through")
            generate_workload(spec, n_tags=4)
        """
        assert codes(src, path=EXPERIMENT_PATH) == []

    def test_rule_is_scoped_to_the_experiments_tree(self):
        src = """
        from repro.localization.grid import Grid2D

        def build() -> None:
            Grid2D(-0.5, 4.0, 0.2, 3.0, 0.1)
        """
        assert codes(src, path="src/repro/serve/traffic.py") == []


class TestMutableDefaultArgument:
    def test_list_literal_default_is_flagged(self):
        assert "A405" in codes("def f(x=[]) -> None: ...")

    def test_dict_constructor_default_is_flagged(self):
        assert "A405" in codes("def f(x=dict()) -> None: ...")

    def test_keyword_only_mutable_default_is_flagged(self):
        assert "A405" in codes("def f(*, x={}) -> None: ...")

    def test_none_and_tuple_defaults_pass(self):
        assert codes("def f(x=None, y=()) -> None: ...") == []

    def test_frozen_dataclass_default_call_passes(self):
        # Config-object defaults (e.g. RelayConfig()) are the package
        # idiom for frozen dataclasses and are not mutable containers.
        assert codes("def f(config=RelayConfig()) -> None: ...") == []
