"""Fig. 10: phase accuracy with and without the mirrored architecture.

The paper's procedure (§7.1b): the relay is wired between a USRP reader
and a tag 0.5 m away; 50 trials each start a query at a random initial
phase; the reader estimates the tag's channel and the offset is the
phase difference between estimates across trials. Mirrored median error
is 0.34 degrees (99th percentile 1.2); without mirroring the phase is
uniform-random.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence

import numpy as np

import repro.channel.pathloss as pathloss
from repro.dsp.units import db_to_linear
from repro.experiments.runner import ExperimentOutput, fmt
from repro.gen2.backscatter import TagParams
from repro.hardware import ReaderFrontend, Synthesizer
from repro.reader import Reader
from repro.relay import MirroredRelay, NoMirrorRelay
from repro.relay.mirrored import RelayConfig
from repro.runtime import SweepTask
from repro.scenarios import registry as scenario_registry
from repro.scenarios.spec import Scenario
from repro.scenarios.trials import bench_tag
from repro.sim.results import percentile

#: Wired attenuation between reader and relay; calibrated so the
#: receiver-noise-limited phase error matches the paper's sub-degree
#: regime.
WIRE_ATTENUATION_DB = 51.0
TAG_DISTANCE_M = 0.5
REPLY_BITS = (1, 0, 1, 1, 0, 0, 1, 0) * 2


@dataclass
class Fig10Result:
    """Per-trial phase-error samples (degrees)."""

    mirrored_errors_deg: np.ndarray
    no_mirror_errors_deg: np.ndarray


def _media(relay, half_link_amp: float, wire_amp: float):
    downlink = lambda s: relay.forward_downlink(s.scaled(wire_amp)).scaled(
        half_link_amp
    )
    uplink = lambda s: relay.forward_uplink(s.scaled(half_link_amp)).scaled(
        wire_amp
    )
    return downlink, uplink


def _angular_errors_deg(phases: np.ndarray) -> np.ndarray:
    """Deviations from the circular mean, in degrees."""
    mean_vector = np.mean(np.exp(1j * phases))
    reference = np.angle(mean_vector)
    deviations = np.angle(np.exp(1j * (phases - reference)))
    return np.rad2deg(np.abs(deviations))


def _link_amplitudes(
    tag_distance_m: float = TAG_DISTANCE_M,
) -> "tuple[float, float]":
    """(half-link amplitude, wire amplitude) of the bench setup."""
    wire_amp = float(np.sqrt(db_to_linear(-WIRE_ATTENUATION_DB)))
    half_amp = float(
        np.sqrt(
            db_to_linear(-pathloss.free_space_path_loss_db(tag_distance_m, 916e6))
        )
    )
    return half_amp, wire_amp


def _campaign_reader_ppm(campaign_seed: int) -> float:
    """The one crystal shared by every trial of a campaign (§7.1b)."""
    return float(np.random.default_rng(campaign_seed).uniform(-1.0, 1.0))


def _phase_trial(
    trial: int,
    campaign_seed: int,
    mirrored: bool,
    center_frequency_hz: float,
    tag_distance_m: float,
    seed: int,
) -> float:
    """One Fig. 10 trial -> the reader's estimated reply phase (rad).

    The campaign seed pins what is physically shared across trials (the
    reader crystal's ppm error; the one mirrored-relay build); the
    per-trial seed drives what varies per query (initial phase, noise,
    and — for the no-mirror baseline — the relay oscillator draw). The
    carrier and the tag's bench position come from the scenario.
    """
    rng = np.random.default_rng(seed)
    half_amp, wire_amp = _link_amplitudes(tag_distance_m)
    tag = bench_tag(tag_distance_m, rng)
    if mirrored:
        relay = MirroredRelay(
            center_frequency_hz,
            RelayConfig(),
            np.random.default_rng(campaign_seed + 1),
        )
    else:
        relay = NoMirrorRelay(
            center_frequency_hz,
            RelayConfig(),
            np.random.default_rng(campaign_seed + 100 + trial),
        )
    downlink, uplink = _media(relay, half_amp, wire_amp)
    frontend = ReaderFrontend(
        Synthesizer(
            center_frequency_hz,
            ppm_error=_campaign_reader_ppm(campaign_seed),
            phase_offset_rad=float(rng.uniform(0.0, 2.0 * np.pi)),
        ),
        tx_power_dbm=20.0,
        rng=rng,
    )
    reader = Reader(frontend, tag_params=TagParams(blf=500e3, miller_m=4))
    estimate = reader.measure_reply_phase(
        tag, REPLY_BITS, downlink=downlink, uplink=uplink
    )
    return float(estimate.phase_rad)


def build_tasks(
    n_trials: int = 50,
    seed: int = 0,
    scenario: "str | Scenario" = "rf_bench",
) -> List[SweepTask]:
    """The Fig. 10 phase-accuracy campaign as per-trial tasks.

    The shared physical state (one crystal, one mirrored build) derives
    from the campaign seed inside every task, so trials are independent
    and the sweep parallelizes; per-trial randomness is trial-indexed.
    The mirrored block comes first, then the no-mirror baseline. The
    carrier and the wired tag's position resolve from the bench
    scenario.
    """
    spec = scenario_registry.resolve(scenario)
    tag_distance_m = float(np.hypot(*spec.tags.positions_m[0]))
    return [
        SweepTask.make(
            _phase_trial,
            params={
                "trial": trial,
                "campaign_seed": seed,
                "mirrored": mirrored,
                "center_frequency_hz": float(
                    spec.radio.center_frequency_hz
                ),
                "tag_distance_m": tag_distance_m,
            },
            seed=seed * 10_007 + 2 * trial + (0 if mirrored else 1),
            label=f"fig10/{'mirrored' if mirrored else 'no_mirror'}/t{trial}",
        )
        for mirrored in (True, False)
        for trial in range(n_trials)
    ]


def reduce(
    payloads: Sequence[float], params: Mapping[str, Any]
) -> Fig10Result:
    """Split the payloads back into the two blocks and take deviations."""
    n_trials = int(params["n_trials"])
    mirrored_phases = np.asarray(payloads[:n_trials], dtype=float)
    no_mirror_phases = np.asarray(payloads[n_trials:], dtype=float)
    return Fig10Result(
        mirrored_errors_deg=_angular_errors_deg(mirrored_phases),
        no_mirror_errors_deg=_angular_errors_deg(no_mirror_phases),
    )


def format_result(result: Fig10Result) -> ExperimentOutput:
    """Render the Fig. 10 comparison table."""
    rows = []
    for label, errors in (
        ("RFly (mirrored)", result.mirrored_errors_deg),
        ("no-mirror baseline", result.no_mirror_errors_deg),
    ):
        rows.append(
            [
                label,
                fmt(float(np.median(errors))),
                fmt(percentile(errors, 99.0)),
                fmt(float(np.max(errors))),
            ]
        )
    median_mirrored = float(np.median(result.mirrored_errors_deg))
    median_baseline = float(np.median(result.no_mirror_errors_deg))
    return ExperimentOutput(
        name="Fig. 10 — phase preservation",
        headers=["architecture", "median err (deg)", "p99 (deg)", "max (deg)"],
        rows=rows,
        paper_claims={
            "mirrored median": "0.34 deg",
            "mirrored p99": "1.2 deg",
            "no-mirror": "uniform random phase",
        },
        measured={
            "mirrored median": f"{median_mirrored:.3f} deg",
            "mirrored p99": f"{percentile(result.mirrored_errors_deg, 99.0):.3f} deg",
            "no-mirror": f"median deviation {median_baseline:.1f} deg",
        },
    )
