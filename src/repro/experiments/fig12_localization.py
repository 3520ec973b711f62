"""Fig. 12: CDF of end-to-end localization error.

100 randomized trials across a simulated 30 x 40 m two-floor building,
mixing line-of-sight and through-wall reader placements. The paper
reports a 19 cm median and a 53 cm 90th-percentile error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence, Tuple

import numpy as np

from repro.constants import UHF_CENTER_FREQUENCY
from repro.experiments.runner import ExperimentOutput, fmt
from repro.localization import Localizer
from repro.runtime import SweepTask
from repro.scenarios import registry as scenario_registry
from repro.scenarios.spec import Scenario
from repro.scenarios.trials import warehouse_trial
from repro.sim.results import empirical_cdf, summarize


@dataclass
class Fig12Result:
    """Per-trial localization errors (meters)."""

    errors_m: np.ndarray

    def cdf(self) -> Tuple[np.ndarray, np.ndarray]:
        """Empirical CDF of the stored samples."""
        return empirical_cdf(self.errors_m)


def _trial(scenario_json: str, trial: int, seed: int) -> float:
    """One Fig. 12 trial: scenario build + locate -> error (m)."""
    localizer = Localizer(frequency_hz=UHF_CENTER_FREQUENCY)
    scenario = warehouse_trial(Scenario.from_json(scenario_json), seed)
    result = localizer.locate(
        scenario.measurements, search_grid=scenario.search_grid
    )
    return result.error_to(scenario.tag_position)


def build_tasks(
    n_trials: int = 100,
    seed: int = 0,
    scenario: "str | Scenario" = "paper_warehouse_two_floor",
) -> List[SweepTask]:
    """The Fig. 12 campaign as per-trial tasks.

    Each trial realizes the named warehouse scenario at its own seed;
    the spec rides in the task params as canonical JSON.
    """
    scenario_json = scenario_registry.resolve(scenario).to_json()
    return [
        SweepTask.make(
            _trial,
            params={"scenario_json": scenario_json, "trial": trial},
            seed=seed * 10_000 + trial,
            label=f"fig12/trial{trial}",
        )
        for trial in range(n_trials)
    ]


def reduce(
    payloads: Sequence[float], params: Mapping[str, Any]
) -> Fig12Result:
    """Per-trial errors in task order -> the error-sample result."""
    return Fig12Result(errors_m=np.asarray(payloads, dtype=float))


def format_result(result: Fig12Result) -> ExperimentOutput:
    """Render the error-distribution table."""
    stats = summarize(result.errors_m)
    rows = [
        [
            "localization error (m)",
            str(stats.n),
            fmt(stats.median),
            fmt(stats.p10),
            fmt(stats.p90),
            fmt(stats.p99),
        ]
    ]
    return ExperimentOutput(
        name="Fig. 12 — localization error CDF",
        headers=["metric", "n", "median", "p10", "p90", "p99"],
        rows=rows,
        paper_claims={"median": "0.19 m", "p90": "0.53 m"},
        measured={
            "median": f"{stats.median:.3f} m",
            "p90": f"{stats.p90:.3f} m",
        },
    )
