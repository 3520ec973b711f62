"""Tests for daisy-chained relays (paper §4.3 / §9 swarm extension)."""

import numpy as np
import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import ConfigurationError, RelayInstabilityError
from repro.localization import Grid2D, Localizer, disentangle
from repro.relay import (
    ChainPlan,
    DaisyChainMeasurementModel,
    check_chain_stability,
    max_chain_range_m,
)

F = UHF_CENTER_FREQUENCY


class TestChainPlan:
    def test_frequency_ladder(self):
        plan = ChainPlan(reader_frequency_hz=F, shift_hz=1e6, n_relays=3)
        assert plan.hop_frequency_hz(0) == F
        assert plan.hop_frequency_hz(3) == F + 3e6
        assert plan.tag_frequency_hz == F + 3e6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChainPlan(F, 1e6, 0)
        with pytest.raises(ConfigurationError):
            ChainPlan(F, -1e6, 2)
        with pytest.raises(ConfigurationError):
            ChainPlan(F, 1e6, 2).hop_frequency_hz(3)


class TestStabilityAndRange:
    def test_stable_chain_passes(self):
        check_chain_stability([50.0, 60.0], isolation_db=82.0)

    def test_overlong_hop_rings(self):
        with pytest.raises(RelayInstabilityError):
            check_chain_stability([50.0, 500.0], isolation_db=82.0)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            check_chain_stability([-1.0], 82.0)
        with pytest.raises(ConfigurationError):
            check_chain_stability([10.0], 82.0, margin_db=-1.0)

    def test_range_scales_with_relays(self):
        one = max_chain_range_m(1, 82.0)
        three = max_chain_range_m(3, 82.0)
        assert three > 2.5 * one

    def test_range_includes_tag_reach(self):
        assert max_chain_range_m(1, 82.0, tag_reach_m=3.0) == pytest.approx(
            max_chain_range_m(1, 82.0, tag_reach_m=0.0) + 3.0
        )


class TestChainMeasurements:
    def make_model(self, n_relays=2):
        plan = ChainPlan(reader_frequency_hz=F, shift_hz=1e6, n_relays=n_relays)
        return DaisyChainMeasurementModel((0.0, 0.0), plan)

    def test_wrong_relay_count_rejected(self):
        model = self.make_model(2)
        with pytest.raises(ConfigurationError):
            model.measure([np.array([10.0, 0.0])], (20.0, 1.0))

    def test_reference_isolates_final_link(self):
        """Dividing by the last drone's reference RFID removes every
        upstream hop, exactly like the single-relay Eq. 10."""
        model = self.make_model(2)
        relay1 = np.array([40.0, 0.0])
        tag = np.array([82.0, 1.8])
        isolated = []
        for relay1_y in (0.0, 2.0):  # move the UPSTREAM drone
            m = model.measure(
                [np.array([40.0, relay1_y]), np.array([80.0, 0.0])], tag
            )
            isolated.append(disentangle(m.h_target, m.h_reference))
        assert isolated[0] == pytest.approx(isolated[1], rel=1e-9)

    def test_localization_through_two_hops(self):
        """Phase-based localization survives a 2-relay chain at 80+ m."""
        model = self.make_model(2)
        rng = np.random.default_rng(0)
        relay1 = np.array([40.0, 0.0])
        tag = np.array([82.0, 1.8])
        measurements = [
            model.measure([relay1, np.array([x, 0.0])], tag, rng, snr_db=25.0)
            for x in np.linspace(79.0, 82.0, 40)
        ]
        localizer = Localizer(frequency_hz=F)
        grid = Grid2D(77.0, 85.0, 0.2, 4.0, 0.1)
        result = localizer.locate(measurements, search_grid=grid)
        assert result.error_to(tag) < 0.10

    def test_snr_noise_applied(self):
        model = self.make_model(1)
        rng = np.random.default_rng(1)
        poses = [np.array([30.0, 0.0])]
        clean = model.measure(poses, (32.0, 1.0), rng=None)
        noisy = [
            model.measure(poses, (32.0, 1.0), rng, snr_db=10.0).h_target
            for _ in range(200)
        ]
        rms_error = np.sqrt(
            np.mean(np.abs(np.array(noisy) - clean.h_target) ** 2)
        ) / abs(clean.h_target)
        # At 10 dB SNR the relative rms error is 10^(-1/2).
        assert rms_error == pytest.approx(np.sqrt(10 ** (-1.0)), rel=0.3)
