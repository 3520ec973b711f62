"""RFly's relay: phase-preserving, bidirectionally full-duplex forwarding.

This package is the paper's first core contribution (§4, §6.1):

* :mod:`~repro.relay.paths` — the downconvert/filter/amplify/upconvert
  forwarding path that both link directions instantiate.
* :mod:`~repro.relay.mirrored` — the mirrored architecture: the uplink
  reuses the downlink's synthesizers in reverse, cancelling CFO and
  phase offsets so the reader can measure propagation phase through the
  relay.
* :mod:`~repro.relay.self_interference` — the four leakage paths of
  Fig. 3, antenna coupling, and the stability (oscillation) criterion of
  Eq. 3-4.
* :mod:`~repro.relay.isolation` — the measurement procedure of §7.1.
* :mod:`~repro.relay.freq_discovery` — the streaming center-frequency
  sweep of Eq. 5 and FCC hopping lock-on.
* :mod:`~repro.relay.gain_control` — the VGA programming rules of §6.1.
* :mod:`~repro.relay.analog_baseline` / :mod:`~repro.relay.no_mirror_baseline`
  — the two baselines the paper evaluates against (Fig. 9 and Fig. 10).
"""

from __future__ import annotations

from repro.relay.paths import ForwardingPath, PathConfig
from repro.relay.mirrored import MirroredRelay, RelayConfig
from repro.relay.self_interference import (
    AntennaCoupling,
    LeakagePath,
    loop_gain_db,
    is_stable,
    max_stable_range_m,
)
from repro.relay.isolation import IsolationReport, measure_all_isolations
from repro.relay.freq_discovery import FrequencyDiscovery
from repro.relay.gain_control import GainPlan, plan_gains
from repro.relay.analog_baseline import AnalogRelay
from repro.relay.no_mirror_baseline import NoMirrorRelay
from repro.relay.daisy_chain import (
    ChainPlan,
    DaisyChainMeasurementModel,
    check_chain_stability,
    max_chain_range_m,
)
from repro.relay.feedback import FeedbackResult, simulate_feedback

__all__ = [
    "ForwardingPath",
    "PathConfig",
    "MirroredRelay",
    "RelayConfig",
    "AntennaCoupling",
    "LeakagePath",
    "loop_gain_db",
    "is_stable",
    "max_stable_range_m",
    "IsolationReport",
    "measure_all_isolations",
    "FrequencyDiscovery",
    "GainPlan",
    "plan_gains",
    "AnalogRelay",
    "NoMirrorRelay",
    "ChainPlan",
    "DaisyChainMeasurementModel",
    "check_chain_stability",
    "max_chain_range_m",
    "FeedbackResult",
    "simulate_feedback",
]
