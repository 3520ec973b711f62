"""Observability rules: clock reads, unbounded queues, salted hashing."""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisConfig, analyze_source

OBSERVABILITY_ONLY = AnalysisConfig(select=("O",))


def codes(source: str) -> list:
    return [
        f.code
        for f in analyze_source(
            textwrap.dedent(source), config=OBSERVABILITY_ONLY
        )
    ]


def codes_at(source: str, path: str) -> list:
    return [
        f.code
        for f in analyze_source(
            textwrap.dedent(source), path=path, config=OBSERVABILITY_ONLY
        )
    ]


class TestAdHocTiming:
    def test_time_time_call_is_flagged(self):
        assert "O501" in codes("import time\nstart = time.time()")

    def test_perf_counter_call_is_flagged(self):
        assert "O501" in codes("import time\nstart = time.perf_counter()")

    def test_process_time_call_is_flagged(self):
        assert "O501" in codes("import time\ncpu = time.process_time()")

    def test_monotonic_ns_call_is_flagged(self):
        assert "O501" in codes("import time\nt = time.monotonic_ns()")

    def test_stopwatch_pair_yields_one_finding_per_read(self):
        src = """
        import time
        start = time.perf_counter()
        work()
        elapsed = time.perf_counter() - start
        """
        assert codes(src) == ["O501", "O501"]

    def test_from_time_import_clock_is_flagged(self):
        assert "O501" in codes("from time import perf_counter")

    def test_from_time_import_mixed_names(self):
        # sleep is fine; the clock import in the same statement is not.
        assert codes("from time import sleep, monotonic") == ["O501"]

    def test_wall_clock_seeded_policy_rng_is_flagged(self):
        # An epsilon-greedy relay policy seeded from the obs clock.
        src = """
        import numpy as np
        from repro.obs import wall_clock_s
        class EpsilonGreedy:
            def __init__(self, epsilon):
                self.epsilon = epsilon
                self._rng = np.random.default_rng(int(wall_clock_s()))
        """
        assert codes_at(src, "src/repro/fleet/selection.py") == ["O501"]

    def test_wall_clock_task_seed_is_flagged(self):
        src = """
        from repro.obs.tracing import wall_clock_s as now
        from repro.runtime import SweepTask
        def build_tasks(load_point, loads):
            return [
                SweepTask.make(load_point, params={"load": load}, seed=int(now()))
                for load in loads
            ]
        """
        assert codes_at(src, "src/repro/experiments/serve_bench.py") == ["O501"]

    def test_wall_clock_in_task_row_is_flagged(self):
        src = """
        from repro import obs
        def _load_point(load, seed):
            return {"load": load, "host_s": obs.wall_clock_s()}
        """
        assert codes_at(src, "src/repro/experiments/serve_bench.py") == ["O501"]

    def test_module_qualified_cpu_clock_is_flagged(self):
        src = "import repro.obs.tracing\nt = repro.obs.tracing.cpu_clock_s()"
        assert codes_at(src, "src/repro/soak/driver.py") == ["O501"]

    def test_calendar_clock_is_flagged(self):
        src = """
        import datetime
        from datetime import date, datetime as dt
        stamp = (dt.now(), dt.utcnow(), date.today(), datetime.datetime.today())
        """
        assert codes(src) == ["O501"] * 4

    def test_cli_entry_modules_may_read_the_helpers(self):
        src = """
        from datetime import datetime
        from repro.obs import wall_clock_s
        start_s = wall_clock_s()
        print(f"done in {wall_clock_s() - start_s:.1f} s at {datetime.now()}")
        """
        assert codes_at(src, "src/repro/serve/__main__.py") == []
        assert codes_at(src, "src/repro/experiments/cli.py") == []


class TestNonClockTimeUsagePasses:
    def test_time_sleep_passes(self):
        assert codes("import time\ntime.sleep(0.1)") == []

    def test_bare_import_time_passes(self):
        assert codes("import time") == []

    def test_from_time_import_sleep_passes(self):
        assert codes("from time import sleep") == []

    def test_strftime_passes(self):
        assert codes("import time\ntime.strftime('%Y')") == []

    def test_other_objects_named_time_pass(self):
        # Only the ``time`` module's clocks are in scope, but a local
        # object called ``time`` is indistinguishable by AST — the rule
        # accepts that false-positive risk; unrelated attributes pass.
        assert codes("signal.time_stretch()") == []


class TestUnboundedQueue:
    def test_bare_deque_is_flagged(self):
        assert "O502" in codes("from collections import deque\nq = deque()")

    def test_deque_seeded_without_maxlen_is_flagged(self):
        assert "O502" in codes(
            "from collections import deque\nq = deque([1, 2, 3])"
        )

    def test_collections_attribute_deque_is_flagged(self):
        assert "O502" in codes("import collections\nq = collections.deque()")

    def test_deque_maxlen_none_is_flagged(self):
        assert "O502" in codes(
            "from collections import deque\nq = deque([], maxlen=None)"
        )

    def test_deque_with_maxlen_keyword_passes(self):
        assert codes(
            "from collections import deque\nq = deque(maxlen=128)"
        ) == []

    def test_deque_with_positional_maxlen_passes(self):
        assert codes(
            "from collections import deque\nq = deque([], 128)"
        ) == []

    def test_deque_with_dynamic_maxlen_passes(self):
        assert codes(
            "from collections import deque\nq = deque(maxlen=capacity)"
        ) == []

    def test_queue_without_maxsize_is_flagged(self):
        assert "O502" in codes("import queue\nq = queue.Queue()")

    def test_queue_maxsize_zero_is_flagged(self):
        # maxsize=0 is queue.Queue's spelling of "infinite".
        assert "O502" in codes("import queue\nq = queue.Queue(maxsize=0)")

    def test_queue_positional_zero_is_flagged(self):
        assert "O502" in codes("import queue\nq = queue.Queue(0)")

    def test_lifo_and_priority_queues_are_covered(self):
        assert codes(
            "import queue\na = queue.LifoQueue()\nb = queue.PriorityQueue()"
        ) == ["O502", "O502"]

    def test_queue_with_maxsize_passes(self):
        assert codes("import queue\nq = queue.Queue(maxsize=64)") == []

    def test_bare_name_queue_import_is_flagged(self):
        assert "O502" in codes("from queue import Queue\nq = Queue()")

    def test_simple_queue_is_always_flagged(self):
        assert "O502" in codes("import queue\nq = queue.SimpleQueue()")

    def test_serve_package_is_exempt(self):
        src = "from collections import deque\nq = deque()"
        assert codes_at(src, "src/repro/serve/queueing.py") == []

    def test_other_packages_are_not_exempt(self):
        src = "from collections import deque\nq = deque()"
        assert "O502" in codes_at(src, "src/repro/runtime/engine.py")

    def test_unrelated_calls_pass(self):
        assert codes("make_queue(), dequeue()") == []


class TestExemptPaths:
    def test_obs_tracing_module_is_exempt(self):
        src = "import time\nstart = time.perf_counter()"
        assert codes_at(src, "src/repro/obs/tracing.py") == []

    def test_runtime_engine_module_is_exempt(self):
        src = "import time\nstart = time.perf_counter()"
        assert codes_at(src, "src/repro/runtime/engine.py") == []

    def test_experiments_module_is_not_exempt(self):
        src = "import time\nstart = time.perf_counter()"
        assert "O501" in codes_at(src, "src/repro/experiments/cli.py")

    def test_obs_package_may_read_its_own_helpers(self):
        src = "from repro.obs.tracing import wall_clock_s\nt = wall_clock_s()"
        assert codes_at(src, "src/repro/obs/metrics.py") == []

    def test_windows_style_paths_are_normalized(self):
        src = "import time\nstart = time.perf_counter()"
        assert codes_at(src, "src\\repro\\obs\\tracing.py") == []


class TestSaltedHashRouting:
    def test_hash_modulo_routing_is_flagged(self):
        src = """
        def route(tag_id, n_shards):
            return hash(tag_id) % n_shards
        """
        assert codes(src) == ["O503"]

    def test_bare_hash_call_is_flagged(self):
        assert "O503" in codes("shard = hash('tag-0001')")

    def test_builtins_qualified_hash_is_flagged(self):
        assert "O503" in codes(
            "import builtins\nshard = builtins.hash(key)"
        )

    def test_hash_inside_dunder_hash_passes(self):
        src = """
        class Key:
            def __hash__(self):
                return hash((self.a, self.b))
        """
        assert codes(src) == []

    def test_hash_outside_dunder_hash_in_class_is_flagged(self):
        src = """
        class Router:
            def route(self, key):
                return hash(key) % 4
        """
        assert codes(src) == ["O503"]

    def test_hashlib_digest_routing_passes(self):
        src = """
        import hashlib

        def route(key):
            return hashlib.blake2b(key.encode()).digest()
        """
        assert codes(src) == []

    def test_method_named_hash_on_other_object_passes(self):
        assert codes("digest = hasher.hash(key)") == []

    def test_no_path_exemption_for_the_serve_package(self):
        # Unlike the queue rule, routing has no exempt package: the
        # shard ring itself must use keyed hashlib digests.
        src = "shard = hash(key) % 8"
        assert "O503" in codes_at(src, "src/repro/serve/shard.py")
