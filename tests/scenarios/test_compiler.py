"""Compiler lowering: tasks, workloads, and end-to-end scenario runs."""

import importlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import RuntimeConfig, run_sweep
from repro.scenarios import compiler, registry
from repro.scenarios.cli import smoke_variant
from repro.scenarios.spec import Scenario
from repro.sim import events

#: Every shipped library world must stream end to end under --smoke.
LIBRARY_SCENARIOS = tuple(
    sorted(path.stem for path in registry.LIBRARY_DIR.glob("*.toml"))
)


class TestCompileScenario:
    def test_task_seeds_and_labels(self):
        tasks = compiler.compile_scenario("rf_bench", n_replicates=3, seed=7)
        assert [t.seed for t in tasks] == [7000, 7001, 7002]
        assert [t.label for t in tasks] == [
            "scenario/rf_bench/r0",
            "scenario/rf_bench/r1",
            "scenario/rf_bench/r2",
        ]

    def test_spec_rides_as_canonical_json(self):
        (task,) = compiler.compile_scenario("rf_bench", n_replicates=1)
        params = dict(task.params)
        spec = Scenario.from_json(params["scenario_json"])
        assert spec == registry.get("rf_bench")

    def test_zero_replicates_rejected(self):
        with pytest.raises(ConfigurationError):
            compiler.compile_scenario("rf_bench", n_replicates=0)


class TestWorkloadDelegation:
    def test_explicit_knobs_override_the_spec(self):
        coarse = compiler.generate_workload(
            "conveyor_flow_through", seed=0, pose_spacing_m=0.5
        )
        fine = compiler.generate_workload("conveyor_flow_through", seed=0)
        assert len(coarse.events) < len(fine.events)


class TestGen2Boundary:
    """Both generators look the Gen2 MAC up on :mod:`repro.sim.events`
    at call time, so a wrapper installed there sees every inventory
    (the wall-clock ledger's ``gen2`` layer is such a wrapper)."""

    @pytest.mark.parametrize(
        "name", ["conveyor_flow_through", "aisle_crossover_handoff"]
    )
    def test_generate_workload_reads_through_the_events_module(
        self, name, monkeypatch
    ):
        # Import the fleet generator before patching: a module that bound
        # the MAC at import time must keep the original and fail here.
        importlib.import_module("repro.fleet.workload")
        spec = smoke_variant(registry.get(name))
        assert spec.traffic.use_gen2_mac
        reads = []
        original = events.inventory_at_pose

        def counting(*args, **kwargs):
            result = original(*args, **kwargs)
            reads.append(len(result))
            return result

        monkeypatch.setattr(events, "inventory_at_pose", counting)
        workload = compiler.generate_workload(spec, seed=0)
        assert reads
        # Every singulated tag becomes exactly one update event.
        assert sum(reads) == len(workload.events) > 0


class TestEndToEnd:
    @pytest.mark.parametrize("name", LIBRARY_SCENARIOS)
    def test_named_scenario_runs_under_smoke(self, name):
        row = compiler.run_scenario(smoke_variant(registry.get(name)), seed=0)
        assert row["scenario"] == name
        assert row["offered"] > 0
        assert row["sessions"] >= 1
        assert np.isfinite(row["p99_latency_s"])

    def test_run_scenario_is_seed_deterministic(self):
        spec = smoke_variant(registry.get("conveyor_flow_through"))
        assert compiler.run_scenario(spec, seed=3) == compiler.run_scenario(
            spec, seed=3
        )

    def test_serial_equals_process_backend(self):
        spec = smoke_variant(registry.get("conveyor_flow_through"))
        tasks = compiler.compile_scenario(spec, n_replicates=2, seed=0)
        serial = run_sweep(
            tasks, RuntimeConfig(backend="serial"), name="scn-serial"
        )
        process = run_sweep(
            tasks,
            RuntimeConfig(backend="process", max_workers=2),
            name="scn-process",
        )
        assert serial.results == process.results

    def test_fault_plan_engages(self):
        spec = smoke_variant(
            registry.get("conveyor_flow_through")
        ).with_overrides(
            {
                "fault_plan": {
                    "specs": [
                        {
                            "site": "serve.ingest",
                            "action": "drop",
                            "rate": 1.0,
                        }
                    ]
                }
            }
        )
        row = compiler.run_scenario(spec, seed=0)
        clean = compiler.run_scenario(
            smoke_variant(registry.get("conveyor_flow_through")), seed=0
        )
        assert row["applied"] < clean["applied"]
