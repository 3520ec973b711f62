"""The degradation ladder: every fault is typed or flagged, never silent.

Half of this file is the original failure-injection suite (hand-broken
assumptions — a dead reference tag, corrupted bits, out-of-view drones)
ported verbatim; the other half drives the same failure classes through
:mod:`repro.faults` plans, checking site by site that an injected fault
surfaces as a typed exception, an explicit rejection, or a flagged
degraded result — never as a silently wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.channel import Environment
from repro.errors import (
    CRCError,
    LocalizationError,
    MobilityError,
    RelayError,
    RelayInstabilityError,
    RelayRebootError,
    TagNotPoweredError,
)
from repro.faults import FaultPlan, Trigger
from repro.gen2.bitops import bits_from_int
from repro.gen2.crc import append_crc16, check_crc16
from repro.hardware import PassiveTag, ReaderFrontend, Synthesizer
from repro.localization import (
    Grid2D,
    Localizer,
    MeasurementModel,
    ThroughRelayMeasurement,
)
from repro.mobility import LineTrajectory, OptiTrack
from repro.reader import Reader
from repro.relay import AnalogRelay, plan_gains
from repro.relay.analog_baseline import AnalogCoupling
from repro.relay.isolation import IsolationReport, measure_all_isolations
from repro.relay.mirrored import MirroredRelay
from repro.sim.events import inventory_at_pose


class TestLostReferenceTag:
    """The drone leaves the reader's radio range: the reference RFID
    stops decoding and disentanglement must fail explicitly (§5.1 — the
    reference doubles as an in-range indicator)."""

    def make_measurements(self, dead_from=20):
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        samples = LineTrajectory((0, 0), (3, 0)).sample_every(0.1)
        measurements = model.measure_along(samples, (1.5, 1.5))
        out = []
        for i, m in enumerate(measurements):
            h_ref = 0.0 + 0.0j if i >= dead_from else m.h_reference
            out.append(
                ThroughRelayMeasurement(
                    position=m.position,
                    h_target=m.h_target,
                    h_reference=h_ref,
                    snr_db=m.snr_db,
                )
            )
        return out

    def test_dead_reference_raises(self):
        measurements = self.make_measurements()
        localizer = Localizer(frequency_hz=915e6)
        with pytest.raises(LocalizationError):
            localizer.locate(
                measurements, search_grid=Grid2D(-1, 4, 0.2, 4, 0.1)
            )

    def test_filtered_measurements_still_work(self):
        """Dropping the dead poses (what a real pipeline does) recovers."""
        measurements = [
            m for m in self.make_measurements() if abs(m.h_reference) > 0
        ]
        localizer = Localizer(frequency_hz=915e6)
        result = localizer.locate(
            measurements, search_grid=Grid2D(-1, 4, 0.2, 4, 0.1)
        )
        assert result.error_to((1.5, 1.5)) < 0.3


class TestRelayFailures:
    def test_unstable_analog_gain_refused_at_construction(self):
        with pytest.raises(RelayInstabilityError):
            AnalogRelay(gain_db=20.0, coupling=AnalogCoupling(intra_db=10.0))

    def test_gain_planning_fails_loudly_on_bad_isolation(self):
        bad = IsolationReport(5.0, 5.0, 5.0, 5.0)
        with pytest.raises(RelayInstabilityError):
            plan_gains(bad)


class TestProtocolFailures:
    def test_corrupted_epc_frame_rejected(self):
        frame = list(append_crc16(bits_from_int(0xDEAD, 16)))
        frame[7] ^= 1
        with pytest.raises(CRCError):
            check_crc16(tuple(frame))

    def test_unpowered_tag_read_raises(self):
        rng = np.random.default_rng(0)
        frontend = ReaderFrontend(
            Synthesizer.random(915e6, rng), tx_power_dbm=10.0, rng=rng
        )
        reader = Reader(frontend)
        tag = PassiveTag(epc=1, position=(50.0, 0.0), rng=rng)
        attenuate = lambda s: s.scaled(1e-5)
        with pytest.raises(TagNotPoweredError):
            reader.read_single_tag(tag, downlink=attenuate, uplink=attenuate)

    def test_swapped_rn16_breaks_handshake(self):
        """An ACK with the wrong handle never yields an EPC."""
        from repro.gen2 import Ack, Gen2Tag, Query

        tag = Gen2Tag(bits_from_int(0xF00D, 96), np.random.default_rng(1))
        rn16 = tag.handle(Query(q=0))
        assert tag.handle(Ack(rn16=rn16.rn16 ^ 0xFFFF)) is None


class TestLocalizationEdgeCases:
    def test_collapsed_aperture_rejected(self):
        """Identical poses form a ring ambiguity, not an array."""
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        measurements = [
            model.measure((1.0, 0.0), (2.0, 1.0)) for _ in range(5)
        ]
        localizer = Localizer(frequency_hz=915e6)
        with pytest.raises(LocalizationError):
            localizer.locate(
                measurements, search_grid=Grid2D(-1, 4, 0.2, 4, 0.1)
            )

    def test_nan_channel_never_silently_wins(self):
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        samples = LineTrajectory((0, 0), (3, 0)).sample_every(0.1)
        measurements = model.measure_along(samples, (1.5, 1.5))
        poisoned = [
            ThroughRelayMeasurement(
                position=m.position,
                h_target=complex(np.nan, np.nan) if i == 3 else m.h_target,
                h_reference=m.h_reference,
                snr_db=m.snr_db,
            )
            for i, m in enumerate(measurements)
        ]
        localizer = Localizer(frequency_hz=915e6)
        # One NaN pose poisons the whole coherent sum; the solver must
        # raise rather than return an arbitrary location.
        with pytest.raises(LocalizationError):
            localizer.locate(
                poisoned, search_grid=Grid2D(-1, 4, 0.2, 4, 0.1)
            )


class TestMobilityFailures:
    def test_out_of_view_drone_rejected_by_optitrack(self):
        tracker = OptiTrack(coverage_min=(0, 0), coverage_max=(5, 5))
        flight = LineTrajectory((4, 4), (8, 4)).sample_every(0.5)
        with pytest.raises(MobilityError):
            tracker.observe_trajectory(flight)


# -- injected faults, site by site ---------------------------------------------


class TestChannelLinkSite:
    def test_injected_blockage_kills_reference_loudly(self):
        """A blacked-out link makes the reference undecodable; the
        batch solver must raise, not return a made-up fix."""
        model = MeasurementModel(reader_position=(-8.0, 0.0))
        samples = LineTrajectory((0, 0), (3, 0)).sample_every(0.1)
        plan = FaultPlan.single("channel.link", "drop")
        with faults.engaged(plan):
            measurements = model.measure_along(samples, (1.5, 1.5))
        assert all(m.h_reference == 0 for m in measurements)
        localizer = Localizer(frequency_hz=915e6)
        with pytest.raises(LocalizationError):
            localizer.locate(
                measurements, search_grid=Grid2D(-1, 4, 0.2, 4, 0.1)
            )

    def test_disabled_engine_channel_unchanged(self):
        env = Environment.free_space()
        baseline = env.channel((0.0, 0.0), (2.0, 1.0), 915e6)
        with faults.engaged(FaultPlan()):
            engaged = env.channel((0.0, 0.0), (2.0, 1.0), 915e6)
        assert engaged == baseline


class TestRelayForwardSite:
    def _relay(self):
        rng = np.random.default_rng(0)
        return MirroredRelay(915e6, rng=rng), rng

    def test_injected_reboot_raises_typed_error(self):
        relay, rng = self._relay()
        plan = FaultPlan.single("relay.forward", "reboot")
        with faults.engaged(plan):
            with pytest.raises(RelayRebootError):
                relay.forward_downlink(_probe_signal(rng))

    def test_injected_drop_raises_relay_error(self):
        relay, rng = self._relay()
        plan = FaultPlan.single("relay.forward", "drop")
        with faults.engaged(plan):
            with pytest.raises(RelayError):
                relay.forward_downlink(_probe_signal(rng))

    def test_injected_gain_collapse_attenuates_not_corrupts(self):
        relay, rng = self._relay()
        signal = _probe_signal(rng)
        clean = relay.forward_downlink(signal)
        relay2, _ = self._relay()
        plan = FaultPlan.single("relay.forward", "gain_collapse", magnitude=20.0)
        with faults.engaged(plan):
            collapsed = relay2.forward_downlink(signal)
        # Feed-through leakage (not collapsed) adds a tiny floor, so the
        # ratio is only approximately the commanded attenuation.
        ratio = np.abs(collapsed.samples).max() / np.abs(clean.samples).max()
        assert ratio == pytest.approx(10 ** (-20.0 / 20.0), rel=5e-2)


class TestRelayIsolationSite:
    def test_injected_isolation_collapse_fails_gain_planning(self):
        rng = np.random.default_rng(0)
        relay = MirroredRelay(915e6, rng=rng)
        plan = FaultPlan.single(
            "relay.isolation", "gain_collapse", magnitude=70.0
        )
        with faults.engaged(plan):
            report = measure_all_isolations(relay)
            with pytest.raises(RelayInstabilityError):
                plan_gains(report)


class TestHardwareSynthesizerSite:
    def test_injected_cfo_step_shifts_oscillator(self):
        synth = Synthesizer(915e6, ppm_error=0.0, phase_offset_rad=0.0)
        clean = synth.tune(915e6)
        plan = FaultPlan.single(
            "hardware.synthesizer", "cfo_step", magnitude=250.0
        )
        with faults.engaged(plan):
            stepped = synth.tune(915e6)
        assert stepped.cfo_hz - clean.cfo_hz == pytest.approx(250.0)

    def test_injected_phase_jump_rotates_oscillator(self):
        synth = Synthesizer(915e6, ppm_error=0.0, phase_offset_rad=0.1)
        plan = FaultPlan.single(
            "hardware.synthesizer", "phase_jump", magnitude=0.5
        )
        with faults.engaged(plan):
            jumped = synth.tune(915e6)
        assert jumped.phase_offset_rad == pytest.approx(0.6)


class TestMobilityPoseSite:
    def test_injected_pose_loss_shortens_observed_trajectory(self):
        tracker = OptiTrack()
        flight = LineTrajectory((0, 0), (3, 0)).sample_every(0.1)
        plan = FaultPlan.single(
            "mobility.pose",
            "pose_loss",
            trigger=Trigger(kind="pose_index", start=0, stop=5),
        )
        with faults.engaged(plan):
            observed = tracker.observe_trajectory(flight)
        assert len(observed) == len(flight) - 5
        np.testing.assert_array_equal(
            observed[0].position, flight[5].position
        )

    def test_injected_jitter_perturbs_but_preserves_count(self):
        tracker = OptiTrack()
        flight = LineTrajectory((0, 0), (3, 0)).sample_every(0.1)
        plan = FaultPlan.single("mobility.pose", "jitter", magnitude=0.02)
        with faults.engaged(plan):
            observed = tracker.observe_trajectory(flight)
        assert len(observed) == len(flight)
        deltas = [
            float(np.linalg.norm(o.position - f.position))
            for o, f in zip(observed, flight)
        ]
        assert all(d > 0 for d in deltas)
        assert max(d for d in deltas) < 0.2


class TestGen2FrameSite:
    def test_injected_corruption_rejected_by_crc_not_delivered(self):
        """Corrupted reads vanish from the inventory (CRC rejection),
        they never surface as a wrong EPC."""
        rng = np.random.default_rng(0)
        tags = [
            PassiveTag(epc=i + 1, position=(float(i), 1.0), rng=rng)
            for i in range(4)
        ]
        baseline = inventory_at_pose(tags, lambda t: True, np.random.default_rng(1))
        assert baseline == {1, 2, 3, 4}
        plan = FaultPlan.single("gen2.frame", "corrupt_bits", magnitude=2.0)
        with faults.engaged(plan):
            read = inventory_at_pose(
                tags, lambda t: True, np.random.default_rng(1)
            )
        assert read == set()  # every read corrupted -> every read rejected
        assert read.issubset(baseline)

    def test_partial_corruption_never_invents_epcs(self):
        rng = np.random.default_rng(0)
        tags = [
            PassiveTag(epc=i + 1, position=(float(i), 1.0), rng=rng)
            for i in range(4)
        ]
        plan = FaultPlan.single("gen2.frame", "corrupt_bits", rate=0.5)
        with faults.engaged(plan):
            read = inventory_at_pose(
                tags, lambda t: True, np.random.default_rng(1)
            )
        assert read.issubset({1, 2, 3, 4})


def _probe_signal(rng):
    from repro.dsp.signal import Signal

    samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    return Signal(
        samples=samples * 1e-3, sample_rate=4e6, center_frequency_hz=915e6
    )
