"""Tests for isolation measurement, stability, and gain planning."""

import numpy as np
import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import ConfigurationError, RelayInstabilityError
from repro.relay import (
    AnalogRelay,
    AntennaCoupling,
    IsolationReport,
    LeakagePath,
    MirroredRelay,
    is_stable,
    loop_gain_db,
    max_stable_range_m,
    measure_all_isolations,
    plan_gains,
)
from repro.relay.analog_baseline import AnalogCoupling
from repro.relay.isolation import measure_isolation_db
from repro.relay.mirrored import RelayConfig
from repro.relay.self_interference import require_stable


@pytest.fixture(scope="module")
def relay():
    return MirroredRelay(915e6, RelayConfig(), np.random.default_rng(0))


@pytest.fixture(scope="module")
def report(relay):
    return measure_all_isolations(relay)


class TestIsolationMeasurement:
    def test_paper_ordering_inter_above_intra(self, report):
        """Fig. 9: inter-link isolations exceed intra-link isolations."""
        assert report.inter_downlink_db > report.intra_downlink_db
        assert report.inter_uplink_db > report.intra_uplink_db

    def test_paper_ordering_downlink_above_uplink(self, report):
        """Fig. 9: downlink isolation beats uplink (LPF beats BPF)."""
        assert report.inter_downlink_db > report.inter_uplink_db
        assert report.intra_downlink_db > report.intra_uplink_db

    def test_magnitudes_near_paper_medians(self, report):
        """Medians 110/92/77/64 dB, a few dB of build tolerance."""
        assert report.inter_downlink_db == pytest.approx(110.0, abs=8.0)
        assert report.inter_uplink_db == pytest.approx(92.0, abs=8.0)
        assert report.intra_downlink_db == pytest.approx(77.0, abs=8.0)
        assert report.intra_uplink_db == pytest.approx(64.0, abs=8.0)

    def test_single_path_measurement_matches_report(self, relay, report):
        value = measure_isolation_db(relay, LeakagePath.INTER_DOWNLINK)
        assert value == pytest.approx(report.inter_downlink_db, abs=0.5)

    def test_isolation_independent_of_probe_power(self, relay):
        low = measure_isolation_db(relay, LeakagePath.INTER_UPLINK, -50.0)
        high = measure_isolation_db(relay, LeakagePath.INTER_UPLINK, -20.0)
        assert low == pytest.approx(high, abs=1.0)

    def test_fifty_db_improvement_over_analog(self, report):
        """Paper: >= 50 dB improvement over the analog relay baseline."""
        analog = AnalogRelay().isolation_report()
        for path in LeakagePath:
            assert report.of(path) - analog.of(path) >= 50.0


class TestCoupling:
    def test_path_accessor(self):
        c = AntennaCoupling(10.0, 11.0, 12.0, 13.0)
        assert c.of(LeakagePath.INTER_DOWNLINK) == 10.0
        assert c.of(LeakagePath.INTRA_UPLINK) == 13.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            AntennaCoupling(inter_downlink_db=-1.0)

    def test_random_draws_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = AntennaCoupling.random(rng)
            for path in LeakagePath:
                assert c.of(path) >= 0.0


class TestStability:
    def test_loop_gain(self):
        assert loop_gain_db(30.0, 70.0) == pytest.approx(-40.0)

    def test_stable_below_margin(self):
        assert is_stable(30.0, 40.0, margin_db=3.0)
        assert not is_stable(38.0, 40.0, margin_db=3.0)

    def test_require_stable_raises(self):
        with pytest.raises(RelayInstabilityError):
            require_stable(50.0, 40.0)

    def test_max_range_matches_eq4(self):
        """30 dB -> <1 m; 80 dB -> hundreds of meters (paper Eq. 4)."""
        assert max_stable_range_m(30.0, UHF_CENTER_FREQUENCY) < 1.0
        assert 200.0 < max_stable_range_m(80.0, UHF_CENTER_FREQUENCY) < 300.0

    def test_negative_isolation_rejected(self):
        with pytest.raises(ConfigurationError):
            max_stable_range_m(-1.0, UHF_CENTER_FREQUENCY)


class TestAnalogBaseline:
    def test_isolation_is_coupling_only(self):
        relay = AnalogRelay(coupling=AnalogCoupling(inter_db=20.0, intra_db=10.0))
        report = relay.isolation_report()
        assert report.inter_downlink_db == 20.0
        assert report.intra_uplink_db == 10.0

    def test_excess_gain_rings(self):
        with pytest.raises(RelayInstabilityError):
            AnalogRelay(gain_db=30.0, coupling=AnalogCoupling(intra_db=12.0))

    def test_forward_applies_gain(self):
        from repro.dsp import mean_power_dbm, tone
        from repro.dsp.units import amplitude_for_power_dbm

        relay = AnalogRelay(gain_db=5.0)
        sig = tone(0.0, 1e-4, 4e6, amplitude_for_power_dbm(-30.0))
        assert mean_power_dbm(relay.forward(sig)) == pytest.approx(-25.0, abs=0.01)


class TestGainPlanning:
    def make_report(self, inter=100.0, intra_dl=77.0, intra_ul=64.0):
        return IsolationReport(inter, inter, intra_dl, intra_ul)

    def test_downlink_maximized(self):
        plan = plan_gains(self.make_report(), max_downlink_gain_db=45.0)
        assert plan.downlink_gain_db == 45.0

    def test_downlink_respects_intra_cap(self):
        plan = plan_gains(self.make_report(intra_dl=30.0), margin_db=3.0)
        assert plan.downlink_gain_db <= 27.0

    def test_total_respects_inter_cap(self):
        plan = plan_gains(self.make_report(inter=50.0), margin_db=3.0)
        assert plan.total_gain_db <= 47.0

    def test_uplink_gain_mostly_post_filter(self):
        plan = plan_gains(self.make_report())
        assert plan.uplink_post_filter_gain_db > plan.uplink_pre_filter_gain_db

    def test_infeasible_isolation_raises(self):
        with pytest.raises(RelayInstabilityError):
            plan_gains(self.make_report(inter=2.0, intra_dl=2.0, intra_ul=2.0))

    def test_plan_keeps_relay_stable(self):
        report = self.make_report()
        plan = plan_gains(report, margin_db=3.0)
        assert is_stable(plan.downlink_gain_db, report.intra_downlink_db, 3.0)
        assert is_stable(plan.uplink_gain_db, report.intra_uplink_db, 3.0)
        assert is_stable(
            plan.total_gain_db,
            min(report.inter_downlink_db, report.inter_uplink_db),
            3.0,
        )
