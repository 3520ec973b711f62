"""Fig. 13: localization accuracy vs flight-path aperture.

20 trials per aperture on the ground robot at a fixed ~5 m reader
distance, SAR vs the RSSI baseline. Paper: SAR improves monotonically
from ~22 cm at 0.5 m aperture to <5 cm at 1 m (90th percentile <7 cm at
2.5 m); RSSI sits around a meter — ~20x worse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.constants import UHF_CENTER_FREQUENCY
from repro.experiments.runner import ExperimentOutput, fmt
from repro.localization import Localizer
from repro.runtime import SweepTask
from repro.scenarios import registry as scenario_registry
from repro.scenarios.spec import Scenario
from repro.scenarios.trials import aperture_trial
from repro.sim.results import percentile

DEFAULT_APERTURES = (0.5, 1.0, 1.5, 2.0, 2.5)


@dataclass
class Fig13Result:
    """SAR and RSSI errors per aperture (meters)."""

    apertures_m: np.ndarray
    sar_errors: Dict[float, np.ndarray]
    rssi_errors: Dict[float, np.ndarray]


def _trial(
    scenario_json: str, aperture_m: float, trial: int, seed: int
) -> "Tuple[float, float]":
    """One (aperture, trial) point -> (SAR error, RSSI error) in meters.

    Both localizers run against the same scenario and share one
    pose->grid geometry via :meth:`Localizer.locate_with_baseline`.
    """
    localizer = Localizer(frequency_hz=UHF_CENTER_FREQUENCY)
    scenario = aperture_trial(
        Scenario.from_json(scenario_json), aperture_m, seed
    )
    sar_result, rssi_estimate = localizer.locate_with_baseline(
        scenario.measurements,
        scenario.rssi_calibration_gain_linear,
        search_grid=scenario.search_grid,
    )
    return (
        sar_result.error_to(scenario.tag_position),
        float(np.linalg.norm(rssi_estimate - scenario.tag_position)),
    )


def build_tasks(
    apertures_m: Sequence[float] = DEFAULT_APERTURES,
    trials_per_point: int = 20,
    seed: int = 0,
    scenario: "str | Scenario" = "aisle_microbench",
) -> List[SweepTask]:
    """The aperture microbenchmark as (aperture, trial) tasks."""
    scenario_json = scenario_registry.resolve(scenario).to_json()
    return [
        SweepTask.make(
            _trial,
            params={
                "scenario_json": scenario_json,
                "aperture_m": float(aperture),
                "trial": trial,
            },
            seed=seed * 1000 + trial,
            label=f"fig13/a{aperture}/t{trial}",
        )
        for aperture in apertures_m
        for trial in range(trials_per_point)
    ]


def reduce(
    payloads: Sequence[Tuple[float, float]], params: Mapping[str, Any]
) -> Fig13Result:
    """Regroup payloads by aperture (aperture-major task order)."""
    apertures_m = params["apertures_m"]
    trials_per_point = int(params["trials_per_point"])
    sar: Dict[float, List[float]] = {float(a): [] for a in apertures_m}
    rssi: Dict[float, List[float]] = {float(a): [] for a in apertures_m}
    points = (
        float(a) for a in apertures_m for _ in range(trials_per_point)
    )
    for aperture, (sar_error_m, rssi_error_m) in zip(points, payloads):
        sar[aperture].append(sar_error_m)
        rssi[aperture].append(rssi_error_m)
    return Fig13Result(
        apertures_m=np.asarray(apertures_m, dtype=float),
        sar_errors={a: np.asarray(v) for a, v in sar.items()},
        rssi_errors={a: np.asarray(v) for a, v in rssi.items()},
    )


def format_result(result: Fig13Result) -> ExperimentOutput:
    """Render the aperture sweep table."""
    headers = [
        "aperture (m)",
        "SAR median (m)", "SAR p10", "SAR p90",
        "RSSI median (m)", "RSSI p90",
    ]
    rows: List[List[str]] = []
    for a in result.apertures_m:
        sar = result.sar_errors[float(a)]
        rssi = result.rssi_errors[float(a)]
        rows.append(
            [
                fmt(float(a)),
                fmt(float(np.median(sar))),
                fmt(percentile(sar, 10.0)),
                fmt(percentile(sar, 90.0)),
                fmt(float(np.median(rssi))),
                fmt(percentile(rssi, 90.0)),
            ]
        )
    smallest = float(result.apertures_m.min())
    widest = float(result.apertures_m.max())
    ratio = float(
        np.median(result.rssi_errors[widest]) / np.median(result.sar_errors[widest])
    )
    return ExperimentOutput(
        name="Fig. 13 — accuracy vs aperture",
        headers=headers,
        rows=rows,
        paper_claims={
            "SAR @ 0.5 m aperture": "~0.22 m median",
            "SAR @ 1.0 m aperture": "< 0.05 m median",
            "SAR vs RSSI @ 2.5 m": "~20x better",
            "monotone improvement": "yes",
        },
        measured={
            "SAR @ 0.5 m aperture": f"{np.median(result.sar_errors[smallest]):.3f} m",
            "SAR @ 1.0 m aperture": f"{np.median(result.sar_errors[1.0]):.3f} m"
            if 1.0 in result.sar_errors
            else "n/a",
            "SAR vs RSSI @ 2.5 m": f"{ratio:.1f}x",
            "monotone improvement": str(
                bool(
                    np.all(
                        np.diff(
                            [
                                np.median(result.sar_errors[float(a)])
                                for a in result.apertures_m
                            ]
                        )
                        <= 0.05
                    )
                )
            ),
        },
    )
