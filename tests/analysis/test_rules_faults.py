"""Fault-injection rule: the engine is the only fault surface (F601)."""

from __future__ import annotations

import textwrap

from repro.analysis import AnalysisConfig, analyze_source

FAULTS_ONLY = AnalysisConfig(select=("F",))


def codes(source: str, path: str = "src/repro/demo.py") -> list:
    return [
        f.code
        for f in analyze_source(
            textwrap.dedent(source), path=path, config=FAULTS_ONLY
        )
    ]


class TestMonkeypatchingFlagged:
    def test_module_attribute_assignment_flagged(self):
        src = """
        from repro.relay import mirrored
        mirrored.MirroredRelay = object
        """
        assert codes(src) == ["F601"]

    def test_nested_attribute_assignment_flagged(self):
        src = """
        import repro.hardware
        repro.hardware.synthesizer.Synthesizer.tune = lambda self, f: None
        """
        assert codes(src) == ["F601"]

    def test_aliased_module_assignment_flagged(self):
        src = """
        import repro.channel.environment as env
        env.Environment = object
        """
        assert codes(src) == ["F601"]

    def test_augmented_assignment_flagged(self):
        src = """
        from repro.serve import service
        service._MIN_TAG_MAGNITUDE += 1.0
        """
        assert codes(src) == ["F601"]

    def test_repro_class_attribute_assignment_flagged(self):
        # A trial retuning a class default instead of passing an argument.
        src = """
        from repro.mobility.robot import GroundRobot
        def _measure_with_jitter(trajectory, spacing_m, rng, jitter_std_m):
            GroundRobot.track_jitter_std_m = jitter_std_m
            return GroundRobot().drive(trajectory, spacing_m, rng)
        """
        assert codes(src, path="src/repro/scenarios/trials.py") == ["F601"]

    def test_repro_config_class_attribute_in_a_task_flagged(self):
        src = """
        from repro.serve.config import ServeConfig
        def _load_point(frequency_hz, latency_slo_s, seed):
            ServeConfig.latency_slo_s = latency_slo_s
            return ServeConfig(frequency_hz=frequency_hz)
        """
        assert codes(src, path="src/repro/experiments/serve_bench.py") == ["F601"]

    def test_setattr_on_repro_module_flagged(self):
        src = """
        from repro import faults
        setattr(faults, "dropped", lambda site, **kw: True)
        """
        assert codes(src) == ["F601"]

    def test_mock_patch_over_repro_target_flagged(self):
        src = """
        from unittest import mock
        patched = mock.patch("repro.relay.paths.RelayPath.forward")
        """
        assert codes(src) == ["F601"]

    def test_bare_patch_call_flagged(self):
        src = """
        from unittest.mock import patch
        patched = patch("repro.gen2.crc.check_crc16")
        """
        assert codes(src) == ["F601"]


class TestEngineEntryPointsReserved:
    def test_direct_engine_construction_flagged(self):
        src = """
        from repro.faults import FaultEngine, FaultPlan
        engine = FaultEngine(FaultPlan(), seed=0)
        """
        assert codes(src) == ["F601"]

    def test_activate_engine_call_flagged(self):
        src = """
        from repro import faults
        faults.activate_engine(None)
        """
        assert codes(src) == ["F601"]


class TestSanctionedUsagePasses:
    def test_engaged_plan_passes(self):
        src = """
        from repro import faults
        from repro.faults import FaultPlan

        def run() -> None:
            with faults.engaged(FaultPlan.single("channel.link", "drop")):
                pass
        """
        assert codes(src) == []

    def test_hook_calls_pass(self):
        src = """
        from repro import faults

        def maybe_drop() -> bool:
            return faults.dropped("channel.link")
        """
        assert codes(src) == []

    def test_assignment_to_local_object_passes(self):
        src = """
        from repro.serve import ServeConfig

        class Holder:
            pass

        holder = Holder()
        holder.config = ServeConfig(frequency_hz=915e6)
        """
        assert codes(src) == []

    def test_patch_over_non_repro_target_passes(self):
        src = """
        from unittest import mock
        patched = mock.patch("os.path.exists")
        """
        assert codes(src) == []

    def test_tests_are_exempt(self):
        src = """
        from repro.relay import mirrored
        mirrored.MirroredRelay = object
        """
        assert codes(src, path="tests/relay/test_fake.py") == []

    def test_faults_package_itself_is_exempt(self):
        src = """
        engine = FaultEngine(plan, seed=0)
        """
        assert codes(src, path="src/repro/faults/engine.py") == []
