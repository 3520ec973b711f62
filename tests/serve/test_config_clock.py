"""ServeConfig validation, the cost model, and the virtual clock."""

import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import ConfigurationError
from repro.serve import ServeConfig, VirtualClock

F = UHF_CENTER_FREQUENCY


class TestServeConfig:
    def test_defaults_are_valid(self):
        config = ServeConfig(frequency_hz=F)
        assert config.latency_slo_s == 0.25
        assert config.queue_capacity == 128

    def test_degrade_threshold_defaults_to_half_the_slo(self):
        config = ServeConfig(frequency_hz=F, latency_slo_s=0.4)
        assert config.degrade_threshold_s == pytest.approx(0.2)

    def test_batch_cost_is_overhead_plus_rate(self):
        config = ServeConfig(
            frequency_hz=F,
            service_rate_nodes_per_s=1e6,
            batch_overhead_s=0.002,
        )
        assert config.batch_cost_s(0) == pytest.approx(0.002)
        assert config.batch_cost_s(500_000) == pytest.approx(0.502)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"frequency_hz": 0.0},
            {"latency_slo_s": 0.0},
            {"queue_capacity": 0},
            {"max_batch_poses": 0},
            {"catchup_poses": -1},
            {"service_rate_nodes_per_s": 0.0},
            {"batch_overhead_s": -0.1},
            {"session_ttl_s": 0.0},
            {"max_sessions": 0},
            {"reference_timeout_s": 0.0},
            {"capacity_mode": "elastic"},
        ],
    )
    def test_invalid_parameters_are_rejected(self, overrides):
        params = {"frequency_hz": F, **overrides}
        with pytest.raises(ConfigurationError):
            ServeConfig(**params)


class TestVirtualClock:
    def test_starts_where_told(self):
        assert VirtualClock(5.0).now_s == 5.0

    def test_advances_forward(self):
        clock = VirtualClock()
        assert clock.advance_to(2.5) == 2.5
        assert clock.now_s == 2.5

    def test_never_rewinds(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.advance_to(1.0) == 3.0
        assert clock.now_s == 3.0
