"""Fig. 9: isolation CDFs of the four self-interference paths.

100 trials; each trial is a fresh relay build (component and placement
tolerances redrawn) probed with the §7.1 procedure at a random input
power, compared against the traditional analog relay baseline. The
paper's medians are 110 / 92 / 77 / 64 dB with >= 50 dB improvement
over the analog relay on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.experiments.runner import ExperimentOutput, fmt
from repro.relay.analog_baseline import AnalogCoupling, AnalogRelay
from repro.relay.isolation import measure_all_isolations
from repro.relay.mirrored import MirroredRelay, RelayConfig
from repro.relay.self_interference import AntennaCoupling, LeakagePath
from repro.runtime import SweepTask
from repro.scenarios import registry as scenario_registry
from repro.scenarios.spec import Scenario
from repro.sim.results import empirical_cdf

PAPER_MEDIANS_DB = {
    LeakagePath.INTER_DOWNLINK: 110.0,
    LeakagePath.INTER_UPLINK: 92.0,
    LeakagePath.INTRA_DOWNLINK: 77.0,
    LeakagePath.INTRA_UPLINK: 64.0,
}


@dataclass
class Fig9Result:
    """Isolation samples per path for RFly and the analog baseline."""

    rfly: Dict[LeakagePath, np.ndarray]
    analog: Dict[LeakagePath, np.ndarray]

    def cdf(
        self, path: LeakagePath, system: str = "rfly"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Empirical CDF of the stored samples."""
        values = self.rfly[path] if system == "rfly" else self.analog[path]
        return empirical_cdf(values)


def _random_config(rng: np.random.Generator) -> RelayConfig:
    """Per-build component tolerances around the PCB's nominal values."""
    return RelayConfig(
        downlink_feedthrough_db=float(rng.normal(18.0, 2.5)),
        uplink_feedthrough_db=float(rng.normal(20.0, 2.5)),
        lpf_cutoff_hz=float(100e3 * rng.uniform(0.97, 1.03)),
        bpf_half_bandwidth_hz=float(150e3 * rng.uniform(0.97, 1.03)),
    )


def _trial(
    trial: int, band_low_hz: float, band_high_hz: float, seed: int
) -> "Dict[str, Dict[str, float]]":
    """One Fig. 9 trial: a fresh relay build probed on every path.

    The reader frequency draws uniformly over the scenario's regulated
    band. Returns plain string-keyed dicts so the payload
    pickles/caches compactly and independently of the enum class.
    """
    rng = np.random.default_rng(seed)
    relay = MirroredRelay(
        reader_frequency_hz=float(rng.uniform(band_low_hz, band_high_hz)),
        config=_random_config(rng),
        rng=rng,
        coupling=AntennaCoupling.random(rng),
    )
    input_power = float(rng.uniform(-50.0, -20.0))
    report = measure_all_isolations(relay, input_power_dbm=input_power)
    # Unity gain: the isolation figures are gain-independent, and a
    # deep-faded coupling draw would make any positive gain ring.
    baseline = AnalogRelay(
        gain_db=0.0, coupling=AnalogCoupling.random(rng), margin_db=0.0
    ).isolation_report()
    return {
        "rfly": {path.value: report.of(path) for path in LeakagePath},
        "analog": {path.value: baseline.of(path) for path in LeakagePath},
    }


def build_tasks(
    n_trials: int = 100,
    seed: int = 0,
    scenario: "str | Scenario" = "rf_bench",
) -> List[SweepTask]:
    """The Fig. 9 isolation campaign as per-trial tasks.

    Each trial redraws its build tolerances from an independent,
    trial-indexed seed, so the campaign parallelizes without any shared
    RNG stream; the probed band's edges come from the bench scenario's
    radio plan.
    """
    radio = scenario_registry.resolve(scenario).radio
    return [
        SweepTask.make(
            _trial,
            params={
                "trial": trial,
                "band_low_hz": float(radio.band_low_hz),
                "band_high_hz": float(radio.band_high_hz),
            },
            seed=seed * 100_003 + trial,
            label=f"fig9/trial{trial}",
        )
        for trial in range(n_trials)
    ]


def reduce(
    payloads: Sequence[Any], params: Mapping[str, Any]
) -> Fig9Result:
    """Collect per-trial path isolations into sample arrays."""
    rfly: "Dict[LeakagePath, List[float]]" = {path: [] for path in LeakagePath}
    analog: "Dict[LeakagePath, List[float]]" = {path: [] for path in LeakagePath}
    for payload in payloads:
        for path in LeakagePath:
            rfly[path].append(payload["rfly"][path.value])
            analog[path].append(payload["analog"][path.value])
    return Fig9Result(
        rfly={p: np.asarray(v) for p, v in rfly.items()},
        analog={p: np.asarray(v) for p, v in analog.items()},
    )


def format_result(result: Fig9Result) -> ExperimentOutput:
    """Render the Fig. 9 medians table and paper comparison."""
    headers = ["leakage path", "RFly median (dB)", "analog median (dB)",
               "improvement (dB)", "paper median (dB)"]
    rows: List[List[str]] = []
    measured = {}
    for path in LeakagePath:
        rfly_med = float(np.median(result.rfly[path]))
        analog_med = float(np.median(result.analog[path]))
        rows.append(
            [
                path.value,
                fmt(rfly_med, 4),
                fmt(analog_med, 3),
                fmt(rfly_med - analog_med, 3),
                fmt(PAPER_MEDIANS_DB[path], 3),
            ]
        )
        measured[path.value] = f"{rfly_med:.1f} dB"
    improvements = [
        float(np.median(result.rfly[p]) - np.median(result.analog[p]))
        for p in LeakagePath
    ]
    measured["min improvement"] = f"{min(improvements):.1f} dB"
    return ExperimentOutput(
        name="Fig. 9 — self-interference isolation",
        headers=headers,
        rows=rows,
        paper_claims={
            "inter_downlink": "110 dB",
            "inter_uplink": "92 dB",
            "intra_downlink": "77 dB",
            "intra_uplink": "64 dB",
            "min improvement": ">= 50 dB over the analog relay",
        },
        measured=measured,
    )
