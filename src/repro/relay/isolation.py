"""The isolation measurement procedure of paper §7.1.

For each of the four leakage paths, a probe tone emulating the relevant
signal (query at +50 kHz, tag response at +500 kHz) is injected into the
relevant path input, and the power leaking to the *wrong* output
frequency is measured — exactly the USRP + spectrum-analyzer procedure
of the paper. Isolation is reported as attenuation plus path gain
(factoring the gain out), plus the antenna coupling of that leakage
path, matching the paper's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults
from repro.dsp.measurements import peak_tone_power_dbm, tone
from repro.dsp.units import amplitude_for_power_dbm
from repro.errors import RelayError
from repro.relay.mirrored import MirroredRelay
from repro.relay.self_interference import LeakagePath

QUERY_OFFSET_HZ = 50.0e3
RESPONSE_OFFSET_HZ = 500.0e3
_PROBE_DURATION = 4.0e-3
_SETTLE_FRACTION = 0.5


@dataclass(frozen=True)
class IsolationReport:
    """Isolation of the four leakage paths, in dB."""

    inter_downlink_db: float
    inter_uplink_db: float
    intra_downlink_db: float
    intra_uplink_db: float

    def of(self, path: LeakagePath) -> float:
        """The value stored for one leakage path."""
        return float(getattr(self, f"{path.value}_db"))


def _measure(
    relay: MirroredRelay,
    path: LeakagePath,
    input_power_dbm: float,
) -> float:
    """Run one §7.1 probe and return the isolation in dB."""
    fs = relay.config.sample_rate
    f1 = relay.reader_frequency_hz
    f2 = relay.shifted_frequency_hz
    amp = amplitude_for_power_dbm(input_power_dbm)

    if path == LeakagePath.INTER_DOWNLINK:
        # A tag response (f1 + 500 kHz) leaking through the downlink: it
        # would be re-relayed to f2 + 500 kHz unless the LPF stops it.
        probe = tone(RESPONSE_OFFSET_HZ, _PROBE_DURATION, fs, amp, f1)
        out = relay.forward_downlink(probe)
        leak_offset = RESPONSE_OFFSET_HZ  # at f2 + 500 kHz, center is f2
        gain_db = relay.downlink_gain_db
    elif path == LeakagePath.INTER_UPLINK:
        # A reader query (f2 + 50 kHz, as relayed) leaking into the
        # uplink: it would emerge at f1 + 50 kHz unless the BPF stops it.
        probe = tone(QUERY_OFFSET_HZ, _PROBE_DURATION, fs, amp, f2)
        out = relay.forward_uplink(probe)
        leak_offset = QUERY_OFFSET_HZ
        gain_db = relay.uplink_gain_db
    elif path == LeakagePath.INTRA_DOWNLINK:
        # A query into the downlink; the leak is the un-converted
        # feed-through at the ORIGINAL frequency f1 + 50 kHz.
        probe = tone(QUERY_OFFSET_HZ, _PROBE_DURATION, fs, amp, f1)
        out = relay.forward_downlink(probe)
        leak_offset = (f1 + QUERY_OFFSET_HZ) - out.center_frequency_hz
        gain_db = relay.downlink_gain_db
    elif path == LeakagePath.INTRA_UPLINK:
        # A tag response into the uplink; the leak is the feed-through
        # at the original frequency f2 + 500 kHz.
        probe = tone(RESPONSE_OFFSET_HZ, _PROBE_DURATION, fs, amp, f2)
        out = relay.forward_uplink(probe)
        leak_offset = (f2 + RESPONSE_OFFSET_HZ) - out.center_frequency_hz
        gain_db = relay.uplink_gain_db
    else:  # pragma: no cover - exhaustive enum
        raise RelayError(f"unknown leakage path {path}")

    steady = out.sliced(int(len(out) * _SETTLE_FRACTION))
    leak_dbm = peak_tone_power_dbm(steady, leak_offset)
    attenuation_db = input_power_dbm - leak_dbm
    conducted_isolation = attenuation_db + gain_db
    isolation_db = conducted_isolation + relay.coupling.of(path)
    if faults.watching("relay.isolation"):
        # Degraded shielding/filtering: the leak gets stronger, so the
        # measured isolation drops — plan_gains() then refuses loudly.
        isolation_db -= faults.gain_collapse_db("relay.isolation")
    return isolation_db


def measure_isolation_db(
    relay: MirroredRelay, path: LeakagePath, input_power_dbm: float = -30.0
) -> float:
    """Isolation of a single leakage path, in dB."""
    return _measure(relay, path, input_power_dbm)


def measure_all_isolations(
    relay: MirroredRelay, input_power_dbm: float = -30.0
) -> IsolationReport:
    """Run all four probes of §7.1 and report the isolations."""
    return IsolationReport(
        inter_downlink_db=_measure(relay, LeakagePath.INTER_DOWNLINK, input_power_dbm),
        inter_uplink_db=_measure(relay, LeakagePath.INTER_UPLINK, input_power_dbm),
        intra_downlink_db=_measure(relay, LeakagePath.INTRA_DOWNLINK, input_power_dbm),
        intra_uplink_db=_measure(relay, LeakagePath.INTRA_UPLINK, input_power_dbm),
    )
