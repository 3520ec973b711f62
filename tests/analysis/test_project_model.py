"""Project model: extraction, resolution, and call-graph reachability."""

from __future__ import annotations

import ast

from repro.analysis.project import ProjectModel, module_name_for_path


def _model(sources: "dict[str, str]") -> ProjectModel:
    parsed = {path: ast.parse(text) for path, text in sources.items()}
    names = {path: path.rsplit("/", 1)[-1][: -len(".py")] for path in parsed}
    return ProjectModel.build(parsed, names=names)


class TestModuleNames:
    def test_package_rooted_name(self, tmp_path):
        pkg = tmp_path / "pkg" / "sub"
        pkg.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("")
        assert module_name_for_path(str(pkg / "mod.py")) == "pkg.sub.mod"
        assert module_name_for_path(str(pkg / "__init__.py")) == "pkg.sub"

    def test_bare_file_uses_stem(self, tmp_path):
        target = tmp_path / "helper.py"
        target.write_text("")
        assert module_name_for_path(str(target)) == "helper"


class TestExtraction:
    def test_function_summary_facts(self):
        model = _model(
            {
                "m.py": (
                    "def path_loss_db(distance_m, frequency_hz, n):\n"
                    "    scale = helper(distance_m)\n"
                    "    return scale\n"
                )
            }
        )
        fn = model.function("m:path_loss_db")
        assert fn is not None
        assert fn.params == ("distance_m", "frequency_hz", "n")
        assert dict(fn.param_families) == {
            "distance_m": "m",
            "frequency_hz": "hz",
        }
        assert fn.return_family == "db"
        assert "helper" in fn.calls
        assert fn.is_public

    def test_module_level_names_and_task_refs(self):
        model = _model(
            {
                "m.py": (
                    "from repro.runtime import SweepTask\n"
                    "LIMIT = 3\n"
                    "def trial(x, seed):\n"
                    "    return x\n"
                    "def build():\n"
                    "    return SweepTask.make(trial, {'x': 1}, seed=0)\n"
                )
            }
        )
        summary = model.modules["m"]
        assert "LIMIT" in summary.module_level_names
        assert summary.task_fn_refs == ("trial",)
        assert model.task_functions() == frozenset({"m:trial"})


class TestResolution:
    def test_bare_local_and_from_import(self):
        model = _model(
            {
                "util.py": "def gain_db():\n    return 1.0\n",
                "m.py": (
                    "from util import gain_db\n"
                    "def caller():\n"
                    "    return gain_db()\n"
                ),
            }
        )
        fn = model.resolve_call("m", "gain_db")
        assert fn is not None and fn.symbol == "util:gain_db"

    def test_module_alias_attribute_chain(self):
        model = _model(
            {
                "units.py": "def db_to_linear(value_db):\n    return value_db\n",
                "m.py": (
                    "import units\n"
                    "def caller(x_db):\n"
                    "    return units.db_to_linear(x_db)\n"
                ),
            }
        )
        fn = model.resolve_call("m", "units.db_to_linear")
        assert fn is not None and fn.symbol == "units:db_to_linear"

    def test_unknown_resolves_to_none(self):
        model = _model({"m.py": "def f():\n    return obj.method()\n"})
        assert model.resolve_call("m", "obj.method") is None
        assert model.resolve_call("nope", "anything") is None


class TestGraphs:
    def test_reachability_crosses_modules(self):
        model = _model(
            {
                "worker.py": (
                    "from helpers import shared\n"
                    "def trial(x, seed):\n"
                    "    return shared(x)\n"
                ),
                "helpers.py": "def shared(x):\n    return x\n",
                "main.py": (
                    "from repro.runtime import SweepTask\n"
                    "from worker import trial\n"
                    "def build():\n"
                    "    return SweepTask.make(trial, {'x': 1}, seed=0)\n"
                ),
            }
        )
        reachable = model.reachable_from_tasks()
        assert "worker:trial" in reachable
        assert "helpers:shared" in reachable
        assert "main:build" not in reachable
