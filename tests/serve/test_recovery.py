"""Recovery policies under injected faults: retry, reacquire, restore.

Every rung of the service's recovery ladder, driven end to end through
:mod:`repro.faults` plans: bounded deterministic-backoff retries against
ingest faults, the reference-reacquisition window that escalates to a
typed :class:`ReferenceLostError`, and checkpoint-restore of killed
sessions — with the accounting (``recoveries``, ``updates_rejected``,
``updates_lost``, ``session_data_loss``) checked at each step.
"""

from __future__ import annotations

import dataclasses
import tempfile

import numpy as np
import pytest

from repro import faults
from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import ReferenceLostError, SessionNotFoundError
from repro.faults import FaultPlan, Trigger
from repro.localization import Grid2D
from repro.localization.measurement import (
    MeasurementModel,
    ThroughRelayMeasurement,
)
from repro.mobility.trajectory import LineTrajectory
from repro.runtime.cache import ResultCache
from repro.serve import Admission, LocalizationService, ServeConfig

F = UHF_CENTER_FREQUENCY
TAG = np.array([1.4, 1.2])


def make_measurements(n=24, seed=0):
    rng = np.random.default_rng(seed)
    model = MeasurementModel(
        reader_position=(-8.0, 0.0), reader_frequency_hz=F
    )
    samples = LineTrajectory((0.0, 0.0), (2.5, 0.0)).sample_every(
        2.5 / (n - 1)
    )
    return [
        model.measure(
            sample.position, TAG, rng=rng, snr_db=30.0, time=sample.time
        )
        for sample in samples
    ]


def dead_reference(m):
    return ThroughRelayMeasurement(
        position=m.position,
        h_target=m.h_target,
        h_reference=0.0 + 0.0j,
        snr_db=m.snr_db,
    )


def dead_tag(m):
    return ThroughRelayMeasurement(
        position=m.position,
        h_target=0.0 + 0.0j,
        h_reference=m.h_reference,
        snr_db=m.snr_db,
    )


def make_service(cache=None, **overrides):
    params = {"frequency_hz": F, **overrides}
    return LocalizationService(ServeConfig(**params), cache=cache)


def make_grid():
    return Grid2D(-0.5, 3.0, 0.2, 2.5, 0.15)


class TestIngestRetry:
    def test_transient_drops_recovered_within_budget(self):
        service = make_service()
        service.open_session("a", make_grid())
        m = make_measurements(2)[0]
        plan = FaultPlan.single("serve.ingest", "drop", max_injections=2)
        with faults.engaged(plan):
            admission = service.submit("a", m, now_s=0.0)
        assert admission is Admission.ACCEPTED
        report = service.report()
        assert report.recoveries == 1
        assert report.updates_rejected == 0
        # Deterministic exponential backoff: 5 ms, then 10 ms.
        assert report.mean_recovery_latency_s == pytest.approx(0.015)

    def test_exhausted_retries_reject_loudly(self):
        service = make_service()
        service.open_session("a", make_grid())
        m = make_measurements(2)[0]
        plan = FaultPlan.single("serve.ingest", "drop")  # every attempt
        with faults.engaged(plan):
            admission = service.submit("a", m, now_s=0.0)
        assert admission is Admission.REJECTED
        report = service.report()
        assert report.updates_rejected == 1
        assert report.recoveries == 0
        assert service.session_data_loss("a") == 1

    def test_injected_stall_charges_the_virtual_server(self):
        service = make_service()
        service.open_session("a", make_grid())
        m = make_measurements(2)[0]
        plan = FaultPlan.single(
            "serve.ingest", "stall", magnitude=0.5, max_injections=1
        )
        with faults.engaged(plan):
            assert service.submit("a", m, now_s=0.0) is Admission.ACCEPTED
        assert service.backlog_s >= 0.5

    @pytest.mark.parametrize("capacity_mode", ["shared", "partitioned"])
    def test_injected_stall_delays_the_stalled_session(self, capacity_mode):
        # The stall lands on the session's own virtual server, so its
        # updates wait behind it in either capacity mode.
        def p99_latency_s(plan):
            service = make_service(capacity_mode=capacity_mode)
            service.open_session("a", make_grid())
            with faults.engaged(plan):
                for index, m in enumerate(make_measurements(12)):
                    service.submit("a", m, now_s=0.01 * index)
                    service.step()
            return service.report().p99_latency_s

        stall = FaultPlan.single("serve.ingest", "stall", magnitude=0.05)
        assert p99_latency_s(stall) > p99_latency_s(FaultPlan())


class TestReferenceOutage:
    def test_undecodable_reference_rejected_within_window(self):
        service = make_service(reference_timeout_s=0.1)
        service.open_session("a", make_grid())
        m = make_measurements(2)[0]
        assert service.submit("a", dead_reference(m), now_s=0.0) is (
            Admission.REJECTED
        )
        report = service.report()
        assert report.updates_rejected == 1
        assert service.session_data_loss("a") == 1

    def test_sustained_outage_escalates_to_typed_error(self):
        service = make_service(reference_timeout_s=0.05)
        service.open_session("a", make_grid())
        m = make_measurements(2)[0]
        service.submit("a", dead_reference(m), now_s=0.0)
        with pytest.raises(ReferenceLostError):
            service.submit("a", dead_reference(m), now_s=0.2)

    def test_reacquisition_closes_the_outage_and_counts_recovery(self):
        service = make_service(reference_timeout_s=1.0)
        service.open_session("a", make_grid())
        first, second = make_measurements(3)[:2]
        service.submit("a", dead_reference(first), now_s=0.0)
        assert service.submit("a", second, now_s=0.03) is Admission.ACCEPTED
        report = service.report()
        assert report.recoveries == 1
        assert report.mean_recovery_latency_s == pytest.approx(0.03)

    def test_dead_tag_halflink_rejected_not_folded_in(self):
        # Reference decodes, tag does not: a zero channel would silently
        # bias the SAR sum, so ingest refuses it.
        service = make_service()
        service.open_session("a", make_grid())
        m = make_measurements(2)[0]
        assert service.submit("a", dead_tag(m), now_s=0.0) is (
            Admission.REJECTED
        )
        assert service.session_data_loss("a") == 1


#: One non-finite value per ingest field a read carries.
NON_FINITE_READS = {
    "h_target": {"h_target": complex(float("inf"), 0.0)},
    "h_reference": {"h_reference": complex(0.0, float("nan"))},
    "position": {"position": np.array([float("nan"), 0.0])},
}


class TestNonFiniteReads:
    @pytest.mark.parametrize("field", sorted(NON_FINITE_READS))
    def test_rejected_at_ingest_without_failing_co_batched_sessions(
        self, field
    ):
        service = make_service()
        service.open_session("a", make_grid())
        service.open_session("b", make_grid())
        good = make_measurements(4)
        for m in good[:3]:
            assert service.submit("a", m, now_s=0.0) is Admission.ACCEPTED
        bad = dataclasses.replace(good[3], **NON_FINITE_READS[field])
        assert service.submit("b", bad, now_s=0.0) is Admission.REJECTED
        service.drain()
        report = service.report()
        assert report.updates_rejected == 1
        assert service.session_data_loss("b") == 1
        assert service.session_data_loss("a") == 0
        # The books balance: every accepted update was applied.
        assert report.updates_accepted == report.updates_applied == 3

    def test_non_finite_reference_is_not_a_reacquisition(self):
        service = make_service(reference_timeout_s=1.0)
        service.open_session("a", make_grid())
        first, second = make_measurements(3)[:2]
        service.submit("a", dead_reference(first), now_s=0.0)
        nan_reference = dataclasses.replace(
            second, h_reference=complex(float("nan"), 0.0)
        )
        assert service.submit("a", nan_reference, now_s=0.03) is (
            Admission.REJECTED
        )
        report = service.report()
        assert report.recoveries == 0
        assert report.updates_rejected == 2


class TestServiceKill:
    def kill_plan(self):
        return FaultPlan.single(
            "serve.session", "reboot", trigger=Trigger(kind="nth_call", n=0)
        )

    def test_kill_without_cache_loses_the_session(self):
        service = make_service()
        service.open_session("a", make_grid())
        measurements = make_measurements(6)
        for m in measurements[:3]:
            service.submit("a", m, now_s=m.time)
        with faults.engaged(self.kill_plan()):
            service.step()
        with pytest.raises(SessionNotFoundError):
            service.submit("a", measurements[3], now_s=measurements[3].time)

    def test_kill_with_cache_restores_and_counts_recovery(self):
        with tempfile.TemporaryDirectory() as tmp:
            service = make_service(cache=ResultCache(tmp))
            service.open_session("a", make_grid())
            measurements = make_measurements(24)
            for m in measurements[:12]:
                service.submit("a", m, now_s=m.time)
            service.drain()
            # Three updates sit pending when the kill lands: they are
            # lost (counted), the accumulators survive via checkpoint.
            for m in measurements[12:15]:
                service.submit("a", m, now_s=m.time)
            with faults.engaged(self.kill_plan()):
                service.step()
            assert service.report().updates_lost == 3
            assert service.session_data_loss("a") == 3
            for m in measurements[15:]:
                assert (
                    service.submit("a", m, now_s=m.time)
                    is Admission.ACCEPTED
                )
            service.drain()
            report = service.report()
            assert report.recoveries == 1
            assert report.mean_recovery_latency_s >= 0.0
            result = service.finalize("a")
            assert float(np.linalg.norm(result.position - TAG)) < 0.5


class TestAdmissionContract:
    def test_rejected_is_a_distinct_admission_outcome(self):
        assert Admission.REJECTED is not Admission.ACCEPTED
        assert Admission.REJECTED is not Admission.SHED
        assert Admission.REJECTED.value == "rejected"

    def test_shed_updates_flag_the_session_degraded(self):
        service = make_service(queue_capacity=1)
        service.open_session("a", make_grid())
        measurements = make_measurements(4)
        outcomes = [
            service.submit("a", m, now_s=0.0) for m in measurements[:3]
        ]
        assert Admission.SHED in outcomes
        assert service.session_data_loss("a") == outcomes.count(
            Admission.SHED
        )
