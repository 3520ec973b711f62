"""The service facade: ladder transitions, equivalence, determinism."""

import numpy as np
import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import SessionNotFoundError
from repro.localization import Grid2D, Localizer
from repro.localization.measurement import MeasurementModel
from repro.mobility.trajectory import LineTrajectory
from repro.runtime.cache import ResultCache
from repro.serve import Admission, LocalizationService, ServeConfig

F = UHF_CENTER_FREQUENCY
TAG = np.array([1.4, 1.2])


def make_measurements(n=24, seed=0, snr_db=30.0):
    rng = np.random.default_rng(seed)
    model = MeasurementModel(
        reader_position=(-8.0, 0.0), reader_frequency_hz=F
    )
    samples = LineTrajectory((0.0, 0.0), (2.5, 0.0)).sample_every(
        2.5 / (n - 1)
    )
    return [
        model.measure(
            sample.position, TAG, rng=rng, snr_db=snr_db, time=sample.time
        )
        for sample in samples
    ]


def make_service(**overrides):
    params = {"frequency_hz": F, **overrides}
    return LocalizationService(ServeConfig(**params))


def make_grid():
    return Grid2D(-0.5, 3.0, 0.2, 2.5, 0.15)


class TestLifecycle:
    def test_submit_to_unknown_session_raises(self):
        service = make_service()
        with pytest.raises(SessionNotFoundError):
            service.submit("ghost", make_measurements(2)[0])

    def test_submit_step_estimate(self):
        service = make_service()
        service.open_session("a", make_grid())
        for m in make_measurements(24):
            assert service.submit("a", m, now_s=m.time) is Admission.ACCEPTED
        service.drain()
        estimate = service.estimate("a")
        assert np.linalg.norm(estimate - TAG) < 0.5

    def test_estimates_cover_only_sessions_with_data(self):
        service = make_service()
        service.open_session("a", make_grid())
        service.open_session("b", make_grid())
        for m in make_measurements(6):
            service.submit("a", m, now_s=m.time)
        service.drain()
        assert set(service.estimates()) == {"a"}

    def test_finalize_closes_the_session(self):
        service = make_service()
        service.open_session("a", make_grid())
        for m in make_measurements(8):
            service.submit("a", m, now_s=m.time)
        service.finalize("a")
        with pytest.raises(SessionNotFoundError):
            service.estimate("a")


class TestBatchEquivalence:
    def test_streamed_finalize_matches_batch_localizer(self):
        measurements = make_measurements(30)
        grid = make_grid()
        service = make_service()
        service.open_session("a", grid)
        for m in measurements:
            service.submit("a", m, now_s=m.time)
        streamed = service.finalize("a")
        batch = Localizer(frequency_hz=F).locate(
            measurements, search_grid=grid
        )
        np.testing.assert_allclose(
            streamed.position, batch.position, atol=1e-9
        )

    def test_overloaded_finalize_still_matches_batch(self):
        # Drive every batch down the degraded rung, then finalize: the
        # deferred full-resolution work must catch up exactly.
        measurements = make_measurements(30)
        grid = make_grid()
        service = make_service(
            latency_slo_s=0.001, service_rate_nodes_per_s=1e4
        )
        service.open_session("a", grid)
        for m in measurements:
            service.submit("a", m, now_s=0.0)
            service.step()
        streamed = service.finalize("a")
        assert service.report().updates_degraded > 0
        batch = Localizer(frequency_hz=F).locate(
            measurements, search_grid=grid
        )
        np.testing.assert_allclose(
            streamed.position, batch.position, atol=1e-9
        )


class TestDegradationLadder:
    def test_light_load_stays_full_resolution(self):
        service = make_service()
        service.open_session("a", make_grid())
        for m in make_measurements(12):
            service.submit("a", m, now_s=m.time)
            service.step()
        report = service.report()
        assert report.degraded_batches == 0
        assert report.updates_shed == 0

    def test_backlog_triggers_degraded_batches(self):
        service = make_service(
            latency_slo_s=0.01, service_rate_nodes_per_s=2e4
        )
        service.open_session("a", make_grid())
        for m in make_measurements(24):
            service.submit("a", m, now_s=0.0)
            service.step()
        service.drain()
        report = service.report()
        assert report.degraded_batches > 0
        assert report.updates_shed == 0

    def test_full_queue_sheds_at_ingest(self):
        service = make_service(queue_capacity=4)
        service.open_session("a", make_grid())
        admissions = [
            service.submit("a", m, now_s=0.0)
            for m in make_measurements(10)
        ]
        assert admissions.count(Admission.ACCEPTED) == 4
        assert admissions.count(Admission.SHED) == 6
        assert service.report().updates_shed == 6

    def test_shed_updates_never_reach_the_accumulators(self):
        service = make_service(queue_capacity=4)
        service.open_session("a", make_grid())
        for m in make_measurements(10):
            service.submit("a", m, now_s=0.0)
        service.drain()
        session = service.store.get("a")
        assert session.degraded.n_poses == 4

    def test_ladder_recovers_after_the_burst(self):
        service = make_service(
            latency_slo_s=0.05,
            service_rate_nodes_per_s=2e5,
            session_ttl_s=1e6,  # the quiet period must not evict
        )
        service.open_session("a", make_grid())
        # Burst: everything at t=0 -> backlog -> degraded batches.
        for m in make_measurements(24)[:12]:
            service.submit("a", m, now_s=0.0)
            service.step()
        burst_report = service.report()
        assert burst_report.degraded_batches > 0
        # Quiet period: arrivals spaced far apart -> ladder back to FULL.
        for i, m in enumerate(make_measurements(24)[12:]):
            service.submit("a", m, now_s=100.0 + 10.0 * i)
            report = service.step()
            assert report.degraded_batches == 0
        session = service.store.get("a")
        assert session.lag_poses == 0  # catch-up rode the full batches


class TestVirtualTimeDeterminism:
    def run_once(self):
        service = make_service()
        service.open_session("a", make_grid())
        for m in make_measurements(20):
            service.submit("a", m, now_s=m.time)
            service.step()
        service.drain()
        return service.report()

    def test_same_inputs_same_report(self):
        assert self.run_once() == self.run_once()

    def test_latencies_are_positive_and_ordered(self):
        report = self.run_once()
        assert 0.0 < report.p50_latency_s <= report.p99_latency_s
        assert report.p99_latency_s <= report.latency_samples_s[-1]


class TestCheckpointedService:
    def test_expired_session_restores_on_submit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = ServeConfig(frequency_hz=F, session_ttl_s=5.0)
        service = LocalizationService(config, cache=cache)
        service.open_session("a", make_grid())
        measurements = make_measurements(16)
        for m in measurements[:8]:
            service.submit("a", m, now_s=m.time)
        service.drain()
        # Long silence expires the session past its TTL...
        late_start = measurements[7].time + 6.0
        for i, m in enumerate(measurements[8:]):
            service.submit("a", m, now_s=late_start + 0.1 * i)
        service.drain()
        session = service.store.get("a")
        assert session.degraded.n_poses == 16
        assert service.report().updates_applied == 16
