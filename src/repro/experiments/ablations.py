"""Ablations of RFly's design choices (DESIGN.md §5).

Each function isolates one design decision and quantifies what breaks
without it:

* :func:`eq4_range_table` — the isolation -> range law (Eq. 3-4).
* :func:`guard_band_ablation` — inter-link isolation collapses when the
  downlink LPF widens into the tag's sub-band.
* :func:`frequency_shift_ablation` — intra-link (out-of-band full
  duplex) requires the shift to clear the filter bandwidths.
* :func:`peak_rule_ablation` — nearest-peak vs argmax under multipath.
* :func:`disentangle_ablation` — localization without the reference-
  RFID division fails whenever the reader-relay leg has multipath.
* :func:`matched_filter_frequency_ablation` — using the reader's f
  instead of the exact f2 in Eq. 12 (the paper's (f-f2)/f < 0.01 claim).
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentOutput, fmt
from repro.localization import Localizer
from repro.localization.measurement import ThroughRelayMeasurement
from repro.relay.isolation import measure_isolation_db
from repro.relay.mirrored import MirroredRelay, RelayConfig
from repro.relay.self_interference import LeakagePath, max_stable_range_m
from repro.runtime import RuntimeConfig, SweepTask, run_sweep
from repro.scenarios import registry as scenario_registry
from repro.scenarios.spec import Scenario
from repro.scenarios.trials import (
    aperture_trial,
    heatmap_trial,
    warehouse_trial,
)

F = UHF_CENTER_FREQUENCY

#: Default named scenarios of the scenario-driven ablations.
HEATMAP_SCENARIO = "cold_storage_aisles"
WAREHOUSE_SCENARIO = "paper_warehouse_two_floor"
MICROBENCH_SCENARIO = "aisle_microbench"


def eq4_range_table() -> ExperimentOutput:
    """Isolation -> maximum stable range (paper Eq. 4 numbers)."""
    rows: List[List[str]] = []
    for isolation in (30.0, 40.0, 50.0, 60.0, 70.0, 80.0):
        rows.append(
            [fmt(isolation), fmt(max_stable_range_m(isolation, F), 4)]
        )
    return ExperimentOutput(
        name="Eq. 4 — isolation vs maximum range",
        headers=["isolation (dB)", "max range (m)"],
        rows=rows,
        paper_claims={
            "30 dB": "0.75 m",
            "80 dB": "238 m",
            "70 dB": "83 m (the §7.2 theoretical LoS range)",
        },
        measured={
            "30 dB": f"{max_stable_range_m(30.0, F):.2f} m",
            "80 dB": f"{max_stable_range_m(80.0, F):.0f} m",
            "70 dB": f"{max_stable_range_m(70.0, F):.0f} m",
        },
        notes=(
            "The paper's figures correspond to a slightly shorter "
            "wavelength (~0.30 m); at 915 MHz the same law gives the "
            "values above."
        ),
    )


def _guard_band_point(cutoff_khz: float, seed: int) -> float:
    """Inter-downlink isolation (dB) of a build with one LPF cutoff."""
    rng = np.random.default_rng(seed)
    relay = MirroredRelay(
        915e6, RelayConfig(lpf_cutoff_hz=cutoff_khz * 1e3), rng
    )
    return measure_isolation_db(relay, LeakagePath.INTER_DOWNLINK)


GUARD_BAND_CUTOFFS_KHZ = (100.0, 200.0, 300.0, 450.0)


def _guard_band_tasks(seed: int) -> List[SweepTask]:
    """The guard-band cutoff sweep as one task per cutoff."""
    return [
        SweepTask.make(
            _guard_band_point,
            params={"cutoff_khz": cutoff},
            seed=seed,
            label=f"ablation/guard_band/{cutoff:.0f}kHz",
        )
        for cutoff in GUARD_BAND_CUTOFFS_KHZ
    ]


def _reduce_guard_band(payloads: Sequence[float]) -> ExperimentOutput:
    """Per-cutoff isolations -> the guard-band table."""
    rows: List[List[str]] = [
        [fmt(cutoff), fmt(isolation, 4)]
        for cutoff, isolation in zip(GUARD_BAND_CUTOFFS_KHZ, payloads)
    ]
    first = float(rows[0][1])
    last = float(rows[-1][1])
    return ExperimentOutput(
        name="Ablation — guard-band filtering (LPF cutoff sweep)",
        headers=["LPF cutoff (kHz)", "inter-downlink isolation (dB)"],
        rows=rows,
        paper_claims={"100 kHz cutoff": "~110 dB inter-link isolation"},
        measured={
            "100 kHz cutoff": f"{first:.0f} dB",
            "collapse at 450 kHz": f"{last:.0f} dB",
        },
    )


def guard_band_ablation(
    seed: int = 0, runtime: Optional[RuntimeConfig] = None
) -> ExperimentOutput:
    """Inter-link isolation vs downlink LPF cutoff.

    Once the cutoff approaches the 500 kHz BLF the filter passes the
    relayed tag response and the guard-band defense of §4.2 is gone.
    """
    sweep = run_sweep(_guard_band_tasks(seed), runtime, name="ablation_guard_band")
    return _reduce_guard_band(sweep.results)


def frequency_shift_ablation() -> ExperimentOutput:
    """The frequency shift must clear the filter bandwidths (§6.1)."""
    rows: List[List[str]] = []
    for shift_khz in (400.0, 700.0, 1000.0, 2000.0):
        try:
            RelayConfig(frequency_shift_hz=shift_khz * 1e3)
            outcome = "stable configuration"
        except ConfigurationError:
            outcome = "REJECTED: signal would feed back within a path"
        rows.append([fmt(shift_khz), outcome])
    return ExperimentOutput(
        name="Ablation — frequency shift vs filter bandwidth",
        headers=["shift (kHz)", "outcome"],
        rows=rows,
        paper_claims={
            "shift > filter BW": "required so no signal feeds back (§6.1)",
            "1 MHz shift": "sufficient while keeping (f-f2)/f < 0.01 (§5.2)",
        },
        measured={
            "shift > filter BW": "enforced by RelayConfig",
            "1 MHz shift": "accepted",
        },
    )


def _peak_rule_trial(
    scenario_json: str, trial: int, seed: int
) -> "Tuple[float, float]":
    """(nearest-peak error, argmax error) on one multipath scenario."""
    scenario = heatmap_trial(Scenario.from_json(scenario_json), seed)
    with_rule = Localizer(frequency_hz=F, use_nearest_peak_rule=True)
    without = Localizer(frequency_hz=F, use_nearest_peak_rule=False)
    nearest = with_rule.locate(
        scenario.measurements, search_grid=scenario.search_grid
    ).error_to(scenario.tag_position)
    argmax = without.locate(
        scenario.measurements, search_grid=scenario.search_grid
    ).error_to(scenario.tag_position)
    return float(nearest), float(argmax)


PEAK_RULE_TRIALS = 10


def _peak_rule_tasks(
    n_trials: int,
    seed: int,
    scenario: "str | Scenario" = HEATMAP_SCENARIO,
) -> List[SweepTask]:
    """The peak-rule comparison as per-trial tasks."""
    scenario_json = scenario_registry.resolve(scenario).to_json()
    return [
        SweepTask.make(
            _peak_rule_trial,
            params={"scenario_json": scenario_json, "trial": trial},
            seed=seed * 100 + trial,
            label=f"ablation/peak_rule/t{trial}",
        )
        for trial in range(n_trials)
    ]


def _reduce_peak_rule(
    payloads: Sequence[Tuple[float, float]]
) -> ExperimentOutput:
    """Per-trial (nearest, argmax) errors -> the peak-rule table."""
    nearest_errors = [pair[0] for pair in payloads]
    argmax_errors = [pair[1] for pair in payloads]
    rows = [
        ["nearest-to-trajectory (§5.2)", fmt(float(np.median(nearest_errors)))],
        ["highest peak (ablated)", fmt(float(np.median(argmax_errors)))],
    ]
    return ExperimentOutput(
        name="Ablation — multipath peak selection",
        headers=["rule", "median error (m)"],
        rows=rows,
        paper_claims={"nearest <= argmax": "the rule rejects ghosts"},
        measured={
            "nearest <= argmax": str(
                float(np.median(nearest_errors))
                <= float(np.median(argmax_errors)) + 1e-9
            )
        },
    )


def peak_rule_ablation(
    n_trials: int = PEAK_RULE_TRIALS,
    seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
    scenario: "str | Scenario" = HEATMAP_SCENARIO,
) -> ExperimentOutput:
    """Nearest-peak rule vs plain argmax under heavy multipath."""
    sweep = run_sweep(
        _peak_rule_tasks(n_trials, seed, scenario),
        runtime,
        name="ablation_peak_rule",
    )
    return _reduce_peak_rule(sweep.results)


def _disentangle_trial(
    scenario_json: str, trial: int, seed: int
) -> "Tuple[float, float]":
    """(disentangled error, entangled error) on one Fig. 12 scenario."""
    localizer = Localizer(frequency_hz=F)
    scenario = warehouse_trial(Scenario.from_json(scenario_json), seed)
    disentangled = localizer.locate(
        scenario.measurements, search_grid=scenario.search_grid
    ).error_to(scenario.tag_position)
    # Ablated: pretend h_target is already the half-link (set the
    # reference to 1), skipping Eq. 10.
    raw = [
        ThroughRelayMeasurement(
            position=m.position,
            h_target=m.h_target,
            h_reference=1.0 + 0.0j,
            snr_db=m.snr_db,
            time=m.time,
        )
        for m in scenario.measurements
    ]
    entangled = localizer.locate(
        raw, search_grid=scenario.search_grid
    ).error_to(scenario.tag_position)
    return float(disentangled), float(entangled)


DISENTANGLE_TRIALS = 8


def _disentangle_tasks(
    n_trials: int,
    seed: int,
    scenario: "str | Scenario" = WAREHOUSE_SCENARIO,
) -> List[SweepTask]:
    """The disentanglement comparison as per-trial tasks."""
    scenario_json = scenario_registry.resolve(scenario).to_json()
    return [
        SweepTask.make(
            _disentangle_trial,
            params={"scenario_json": scenario_json, "trial": trial},
            seed=seed * 500 + trial,
            label=f"ablation/disentangle/t{trial}",
        )
        for trial in range(n_trials)
    ]


def _reduce_disentangle(
    payloads: Sequence[Tuple[float, float]]
) -> ExperimentOutput:
    """Per-trial (disentangled, entangled) errors -> the table."""
    disentangled_errors = [pair[0] for pair in payloads]
    entangled_errors = [pair[1] for pair in payloads]
    rows = [
        ["with Eq. 10 disentanglement", fmt(float(np.median(disentangled_errors)))],
        ["raw entangled channel", fmt(float(np.median(entangled_errors)))],
    ]
    return ExperimentOutput(
        name="Ablation — reference-RFID disentanglement",
        headers=["pipeline", "median error (m)"],
        rows=rows,
        paper_claims={"entangled channel": "cannot localize (>> disentangled)"},
        measured={
            "entangled channel": f"{np.median(entangled_errors):.2f} m vs "
            f"{np.median(disentangled_errors):.2f} m"
        },
    )


def disentangle_ablation(
    n_trials: int = DISENTANGLE_TRIALS,
    seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
    scenario: "str | Scenario" = WAREHOUSE_SCENARIO,
) -> ExperimentOutput:
    """Localizing with the raw (entangled) channel vs Eq. 10.

    Without the reference-RFID division, the reader-relay half-link's
    phase progression corrupts the array equations and the estimate
    collapses (paper §5.1: knowing the drone location is NOT enough
    because of residual multipath on that half-link).
    """
    sweep = run_sweep(
        _disentangle_tasks(n_trials, seed, scenario),
        runtime,
        name="ablation_disentangle",
    )
    return _reduce_disentangle(sweep.results)


def _matched_filter_trial(
    scenario_json: str, trial: int, seed: int
) -> "Tuple[float, float]":
    """(error at reader's f, error at exact f2) on one scenario."""
    scenario = warehouse_trial(Scenario.from_json(scenario_json), seed)
    f_error = Localizer(frequency_hz=F).locate(
        scenario.measurements, search_grid=scenario.search_grid
    ).error_to(scenario.tag_position)
    f2_error = Localizer(frequency_hz=F + 1.0e6).locate(
        scenario.measurements, search_grid=scenario.search_grid
    ).error_to(scenario.tag_position)
    return float(f_error), float(f2_error)


MATCHED_FILTER_TRIALS = 8


def _matched_filter_tasks(
    n_trials: int,
    seed: int,
    scenario: "str | Scenario" = WAREHOUSE_SCENARIO,
) -> List[SweepTask]:
    """The matched-filter frequency comparison as per-trial tasks."""
    scenario_json = scenario_registry.resolve(scenario).to_json()
    return [
        SweepTask.make(
            _matched_filter_trial,
            params={"scenario_json": scenario_json, "trial": trial},
            seed=seed * 700 + trial,
            label=f"ablation/matched_filter/t{trial}",
        )
        for trial in range(n_trials)
    ]


def _reduce_matched_filter(
    payloads: Sequence[Tuple[float, float]]
) -> ExperimentOutput:
    """Per-trial (f, f2) errors -> the matched-filter table."""
    f_errors = [pair[0] for pair in payloads]
    f2_errors = [pair[1] for pair in payloads]
    delta = abs(float(np.median(f_errors)) - float(np.median(f2_errors)))
    rows = [
        ["reader's f (paper's shortcut)", fmt(float(np.median(f_errors)))],
        ["exact f2", fmt(float(np.median(f2_errors)))],
    ]
    return ExperimentOutput(
        name="Ablation — matched-filter frequency (f vs f2)",
        headers=["frequency", "median error (m)"],
        rows=rows,
        paper_claims={"difference": "negligible while (f - f2)/f < 0.01"},
        measured={"difference": f"{delta * 100:.1f} cm"},
    )


def matched_filter_frequency_ablation(
    n_trials: int = MATCHED_FILTER_TRIALS,
    seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
    scenario: "str | Scenario" = WAREHOUSE_SCENARIO,
) -> ExperimentOutput:
    """Using the reader's f vs the exact f2 in Eq. 12 (§5.2)."""
    sweep = run_sweep(
        _matched_filter_tasks(n_trials, seed, scenario),
        runtime,
        name="ablation_matched_filter",
    )
    return _reduce_matched_filter(sweep.results)


def _grid_resolution_trial(
    scenario_json: str, resolution_m: float, trial: int, seed: int
) -> float:
    """Localization error (m) at one fine-grid resolution."""
    localizer = Localizer(frequency_hz=F, fine_resolution=resolution_m)
    scenario = aperture_trial(
        Scenario.from_json(scenario_json), 2.0, seed, snr_db=30.0
    )
    return float(
        localizer.locate(
            scenario.measurements, search_grid=scenario.search_grid
        ).error_to(scenario.tag_position)
    )


GRID_RESOLUTIONS_M = (0.10, 0.05, 0.02)
GRID_RESOLUTION_TRIALS = 6


def _grid_resolution_tasks(
    n_trials: int,
    seed: int,
    scenario: "str | Scenario" = MICROBENCH_SCENARIO,
) -> List[SweepTask]:
    """The grid-resolution sweep as (resolution, trial) tasks."""
    scenario_json = scenario_registry.resolve(scenario).to_json()
    return [
        SweepTask.make(
            _grid_resolution_trial,
            params={
                "scenario_json": scenario_json,
                "resolution_m": resolution,
                "trial": trial,
            },
            seed=seed * 300 + trial,
            label=f"ablation/grid_resolution/r{resolution}/t{trial}",
        )
        for resolution in GRID_RESOLUTIONS_M
        for trial in range(n_trials)
    ]


def _reduce_grid_resolution(
    payloads: Sequence[float], n_trials: int
) -> ExperimentOutput:
    """Per-trial errors (resolution-major) -> the resolution table."""
    rows: List[List[str]] = []
    for i, resolution in enumerate(GRID_RESOLUTIONS_M):
        errors = payloads[i * n_trials : (i + 1) * n_trials]
        rows.append([fmt(resolution), fmt(float(np.median(errors)))])
    coarse = float(rows[0][1])
    fine = float(rows[-1][1])
    return ExperimentOutput(
        name="Ablation — fine-grid resolution",
        headers=["fine resolution (m)", "median error (m)"],
        rows=rows,
        paper_claims={"finer grid": "error floor follows quantization"},
        measured={"finer grid": f"{coarse:.2f} m -> {fine:.2f} m median"},
    )


def grid_resolution_ablation(
    n_trials: int = GRID_RESOLUTION_TRIALS,
    seed: int = 0,
    runtime: Optional[RuntimeConfig] = None,
    scenario: "str | Scenario" = MICROBENCH_SCENARIO,
) -> ExperimentOutput:
    """Fine-grid resolution vs achievable accuracy.

    The SAR estimate cannot beat the search quantization: the error
    floor tracks the fine resolution until physics (noise, multipath)
    dominates. This bounds how much compute the multires search needs.
    """
    sweep = run_sweep(
        _grid_resolution_tasks(n_trials, seed, scenario),
        runtime,
        name="ablation_grid_resolution",
    )
    return _reduce_grid_resolution(sweep.results, n_trials)


def build_tasks(
    seed: int = 0,
    heatmap_scenario: "str | Scenario" = HEATMAP_SCENARIO,
    warehouse_scenario: "str | Scenario" = WAREHOUSE_SCENARIO,
    microbench_scenario: "str | Scenario" = MICROBENCH_SCENARIO,
) -> List[SweepTask]:
    """Every swept ablation as one combined task list, DESIGN.md order.

    The pure-math ablations (Eq. 4 table, frequency-shift config check)
    contribute no tasks; :func:`reduce` re-inserts their tables at the
    right positions. Task params and seeds match the standalone
    ablation functions exactly, so the cache is shared between the two
    entry points. The three worlds the swept ablations probe resolve
    from named scenario specs.
    """
    return [
        *_guard_band_tasks(seed),
        *_peak_rule_tasks(PEAK_RULE_TRIALS, seed, heatmap_scenario),
        *_disentangle_tasks(DISENTANGLE_TRIALS, seed, warehouse_scenario),
        *_matched_filter_tasks(
            MATCHED_FILTER_TRIALS, seed, warehouse_scenario
        ),
        *_grid_resolution_tasks(
            GRID_RESOLUTION_TRIALS, seed, microbench_scenario
        ),
    ]


def reduce(
    payloads: Sequence[Any], params: Mapping[str, Any]
) -> List[ExperimentOutput]:
    """Slice combined payloads back into the per-ablation tables."""
    segments = (
        len(GUARD_BAND_CUTOFFS_KHZ),
        PEAK_RULE_TRIALS,
        DISENTANGLE_TRIALS,
        MATCHED_FILTER_TRIALS,
        len(GRID_RESOLUTIONS_M) * GRID_RESOLUTION_TRIALS,
    )
    slices: List[Sequence[Any]] = []
    start = 0
    for length in segments:
        slices.append(payloads[start : start + length])
        start += length
    return [
        eq4_range_table(),
        _reduce_guard_band(slices[0]),
        frequency_shift_ablation(),
        _reduce_peak_rule(slices[1]),
        _reduce_disentangle(slices[2]),
        _reduce_matched_filter(slices[3]),
        _reduce_grid_resolution(slices[4], GRID_RESOLUTION_TRIALS),
    ]
