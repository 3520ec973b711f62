"""Determinism rules: unseeded RNGs, hidden global random state, OS
entropy and hash-ordered set iteration."""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisConfig, analyze_source

DETERMINISM_ONLY = AnalysisConfig(select=("R",))


def codes(source: str) -> list:
    return [
        f.code
        for f in analyze_source(textwrap.dedent(source), config=DETERMINISM_ONLY)
    ]


class TestUnseededDefaultRng:
    def test_argless_default_rng_is_flagged(self):
        assert "R301" in codes("import numpy as np\nrng = np.random.default_rng()")

    def test_seeded_default_rng_passes(self):
        assert codes("import numpy as np\nrng = np.random.default_rng(7)") == []

    def test_seed_from_constant_passes(self):
        src = """
        import numpy as np
        from repro.constants import DEFAULT_HARDWARE_SEED
        rng = np.random.default_rng(DEFAULT_HARDWARE_SEED)
        """
        assert codes(src) == []

    def test_bare_imported_default_rng_is_flagged(self):
        src = """
        from numpy.random import default_rng
        rng = default_rng()
        """
        assert "R301" in codes(src)

    def test_argless_seed_sequence_is_flagged(self):
        assert "R301" in codes("import numpy as np\nss = np.random.SeedSequence()")

    def test_bare_imported_seed_sequence_is_flagged(self):
        src = """
        from numpy.random import SeedSequence
        children = SeedSequence().spawn(4)
        """
        assert "R301" in codes(src)

    def test_seeded_seed_sequence_passes(self):
        src = """
        import numpy as np
        children = np.random.SeedSequence(entropy=7).spawn(4)
        """
        assert codes(src) == []


class TestLegacyGlobalNpRandom:
    def test_module_level_np_random_call_is_flagged(self):
        assert "R302" in codes("import numpy as np\nx = np.random.normal(0.0, 1.0)")

    def test_np_random_seed_is_flagged(self):
        assert "R302" in codes("import numpy as np\nnp.random.seed(0)")

    def test_injected_generator_passes(self):
        src = """
        import numpy as np
        def draw(rng: np.random.Generator) -> float:
            return float(rng.normal(0.0, 1.0))
        """
        assert codes(src) == []


class TestAdHocParallelism:
    def codes_at(self, source: str, path: str) -> list:
        return [
            f.code
            for f in analyze_source(
                textwrap.dedent(source), path=path, config=DETERMINISM_ONLY
            )
        ]

    def test_import_multiprocessing_is_flagged(self):
        assert "R304" in codes("import multiprocessing")

    def test_import_multiprocessing_submodule_is_flagged(self):
        assert "R304" in codes("import multiprocessing.pool")

    def test_from_concurrent_futures_is_flagged(self):
        assert "R304" in codes(
            "from concurrent.futures import ProcessPoolExecutor"
        )

    def test_from_concurrent_import_futures_is_flagged(self):
        assert "R304" in codes("from concurrent import futures")

    def test_runtime_backends_module_is_exempt(self):
        src = "from concurrent.futures import ProcessPoolExecutor"
        assert self.codes_at(src, "src/repro/runtime/backends.py") == []

    def test_experiments_module_is_not_exempt(self):
        src = "import multiprocessing"
        assert "R304" in self.codes_at(src, "src/repro/experiments/cli.py")

    def test_unrelated_imports_pass(self):
        assert codes("import concurrency_helpers\nimport threading") == []


class TestStdlibRandomImport:
    def test_import_random_is_flagged(self):
        assert "R303" in codes("import random")

    def test_from_random_import_is_flagged(self):
        assert "R303" in codes("from random import choice")

    def test_numpy_random_subpackage_import_passes(self):
        assert codes("from numpy import random") == []

    def test_urandom_fallback_rng_is_flagged(self):
        # A relay's fallback generator seeded from OS entropy.
        src = """
        import os
        import numpy as np
        def _fallback(rng=None):
            seed = int.from_bytes(os.urandom(8), "little")
            return rng if rng is not None else np.random.default_rng(seed)
        """
        assert "R303" in codes(src)

    def test_urandom_mixed_into_constant_seed_is_flagged(self):
        src = """
        import os
        import numpy as np
        from repro.constants import DEFAULT_HARDWARE_SEED
        rng = np.random.default_rng(
            [DEFAULT_HARDWARE_SEED, int.from_bytes(os.urandom(8), "little")]
        )
        """
        assert "R303" in codes(src)

    def test_uuid4_seeded_rng_is_flagged(self):
        src = """
        import uuid
        import numpy as np
        def crystal_rng():
            return np.random.default_rng(uuid.uuid4().int)
        """
        assert "R303" in codes(src)

    def test_urandom_task_seed_is_flagged(self):
        src = """
        import os
        from repro.runtime import SweepTask
        def build_tasks(trial_fn, n_trials):
            return [
                SweepTask.make(
                    trial_fn,
                    params={"trial": trial},
                    seed=int.from_bytes(os.urandom(4), "little"),
                )
                for trial in range(n_trials)
            ]
        """
        assert "R303" in codes(src)

    def test_entropy_imports_are_flagged(self):
        assert codes("import secrets") == ["R303"]
        assert codes("from secrets import token_bytes") == ["R303"]
        assert codes("from os import urandom") == ["R303"]
        assert codes("from uuid import uuid1") == ["R303"]

    def test_deterministic_uuid_and_os_calls_pass(self):
        src = """
        import os
        import uuid
        key = uuid.uuid5(uuid.NAMESPACE_URL, "rfly")
        path = os.path.join("a", "b")
        """
        assert codes(src) == []


class TestR312SetIteration:
    def test_for_loop_over_set(self):
        source = (
            "def merge(payloads):\n"
            "    keys = set()\n"
            "    for p in payloads:\n"
            "        keys = keys | set(p)\n"
            "    out = []\n"
            "    for k in keys:\n"
            "        out.append(k)\n"
            "    return out\n"
        )
        assert "R312" in codes(source)

    def test_comprehension_over_set(self):
        source = (
            "def merge(a, b):\n"
            "    keys = set(a) | set(b)\n"
            "    return [k for k in keys]\n"
        )
        assert "R312" in codes(source)

    def test_list_of_set_is_order_sensitive(self):
        source = "def f(items):\n    keys = set(items)\n    return list(keys)\n"
        assert "R312" in codes(source)

    def test_sorted_iteration_clean(self):
        source = (
            "def merge(a, b):\n"
            "    keys = set(a) | set(b)\n"
            "    return [k for k in sorted(keys)]\n"
        )
        assert codes(source) == []

    def test_order_free_consumers_clean(self):
        source = (
            "def f(items):\n"
            "    keys = set(items)\n"
            "    return len(keys), sum(keys), min(keys), max(keys)\n"
        )
        assert codes(source) == []

    def test_separator_join_of_set_is_flagged(self):
        # A failure-kinds cell built from a set.
        src = """
        def failure_kinds(report):
            return ",".join(set(report.failures.values()))
        """
        assert "R312" in codes(src)

    def test_list_of_set_difference_is_flagged(self):
        # Unknown-key names listed in hash order.
        src = """
        from dataclasses import fields
        def unknown_keys(cls, data):
            known = {f.name for f in fields(cls)}
            return list(set(data) - known)
        """
        assert "R312" in codes(src)

    def test_for_loop_over_set_call_is_flagged(self):
        # Sessions finalized in hash order.
        src = """
        def finalize_all(service, workload):
            for session_id in set(workload.grids):
                service.finalize(session_id)
        """
        assert "R312" in codes(src)

    def test_unbound_str_join_and_unpacking_are_flagged(self):
        src = """
        def render(names):
            unique = frozenset(names)
            return str.join(",", unique), [*unique]
        """
        assert codes(src) == ["R312", "R312"]

    def test_name_also_bound_to_a_list_is_not_a_set(self):
        src = """
        def f(items):
            keys = set(items)
            keys = sorted(keys)
            return [k for k in keys]
        """
        assert codes(src) == []

    def test_order_free_generator_and_set_comprehension_clean(self):
        src = """
        def f(items):
            keys = set(items)
            squares = {k * k for k in keys}
            return frozenset(k for k in keys), any(k < 0 for k in keys), squares
        """
        assert codes(src) == []


class TestModuleStateMutation:
    def codes_at(self, source: str, path: str = "src/repro/experiments/demo.py") -> list:
        config = AnalysisConfig(select=("P",))
        return [
            f.code
            for f in analyze_source(textwrap.dedent(source), path=path, config=config)
        ]

    def test_memo_keyed_without_the_seed_is_flagged(self):
        # A load-point task caching workloads by load alone.
        src = """
        from repro.scenarios.compiler import generate_workload
        _WORKLOADS = {}
        def _load_point(spec, load, seed):
            if load not in _WORKLOADS:
                _WORKLOADS[load] = generate_workload(spec, seed=seed, load=load)
            return _WORKLOADS[load]
        """
        assert self.codes_at(src, "src/repro/experiments/serve_bench.py") == ["P701"]

    def test_mutating_method_and_global_rebind_are_flagged(self):
        src = """
        _TRIAL_LOG = []
        _COUNT = 0
        def _trial(seed):
            global _COUNT
            _COUNT += 1
            _TRIAL_LOG.append(seed)
            return seed
        """
        assert self.codes_at(src) == ["P701", "P701"]

    def test_locals_parameters_and_import_time_setup_pass(self):
        src = """
        CACHE = {}
        CACHE["default"] = 1
        def f(CACHE, key):
            CACHE[key] = 1
        def g(key):
            seen = set()
            seen.add(key)
            return {**CACHE, key: len(seen)}
        """
        assert self.codes_at(src) == []

    def test_registries_are_audited_owners(self):
        src = """
        _SCENARIOS = {}
        def register(scenario):
            _SCENARIOS[scenario.name] = scenario
        """
        assert self.codes_at(src, "src/repro/scenarios/registry.py") == []
        assert self.codes_at(src, "src/repro/scenarios/compiler.py") == ["P701"]
