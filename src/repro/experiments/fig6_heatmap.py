"""Fig. 6: the P(x, y) likelihood heatmaps.

(a) line-of-sight: a single sharp peak within centimeters of the tag
(the paper reports <7 cm for its example); (b) heavy multipath from
steel shelving: several strong "ghost" regions, all farther from the
trajectory than the true tag, resolved by the §5.2 nearest-peak rule.

The heatmaps render to ASCII for terminal inspection; the raw arrays
are in the result for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Sequence

import numpy as np

from repro.constants import UHF_CENTER_FREQUENCY
from repro.experiments.runner import ExperimentOutput, fmt
from repro.localization import (
    Localizer,
    disentangle_series,
    find_peaks,
    sar_heatmap,
    select_nearest_to_trajectory,
)
from repro.localization.grid import Heatmap
from repro.localization.multires import PEAK_RELATIVE_THRESHOLD
from repro.runtime import SweepTask
from repro.scenarios import registry as scenario_registry
from repro.scenarios.spec import Scenario
from repro.scenarios.trials import heatmap_trial

_SHADES = " .:-=+*#%@"


@dataclass
class Fig6Result:
    """Both heatmaps plus estimates under both peak rules."""

    los_heatmap: Heatmap
    los_error_m: float
    multipath_heatmap: Heatmap
    multipath_error_nearest_m: float
    multipath_error_argmax_m: float
    ghost_peaks_farther: bool


def ascii_heatmap(heatmap: Heatmap, width: int = 64) -> str:
    """Render P(x, y) as ASCII shading (red -> '@', navy -> ' ')."""
    values = heatmap.values
    rows, cols = values.shape
    col_step = max(1, cols // width)
    row_step = max(1, rows // (width // 2))
    shrunk = values[::row_step, ::col_step]
    lo, hi = float(shrunk.min()), float(shrunk.max())
    span = hi - lo if hi > lo else 1.0
    lines = []
    for row in shrunk[::-1]:  # y increases upward
        indices = ((row - lo) / span * (len(_SHADES) - 1)).astype(int)
        lines.append("".join(_SHADES[i] for i in indices))
    return "\n".join(lines)


def _compute(
    scenario_json: str, multipath_scenario_json: str, seed: int
) -> Fig6Result:
    """Generate both Fig. 6 panels from their scenario specs."""
    f = UHF_CENTER_FREQUENCY
    los = heatmap_trial(Scenario.from_json(scenario_json), seed)
    positions, channels = disentangle_series(los.measurements)
    los_map = sar_heatmap(positions, channels, los.search_grid, f)
    localizer = Localizer(frequency_hz=f)
    los_result = localizer.locate(los.measurements, search_grid=los.search_grid)
    los_error = los_result.error_to(los.tag_position)

    multi = heatmap_trial(Scenario.from_json(multipath_scenario_json), seed)
    positions_m, channels_m = disentangle_series(multi.measurements)
    multi_map = sar_heatmap(positions_m, channels_m, multi.search_grid, f)
    nearest = localizer.locate(multi.measurements, search_grid=multi.search_grid)
    argmax_localizer = Localizer(frequency_hz=f, use_nearest_peak_rule=False)
    argmax = argmax_localizer.locate(
        multi.measurements, search_grid=multi.search_grid
    )
    # Verify the §5.2 insight on this heatmap: every other significant
    # peak lies farther from the trajectory than the selected one.
    peaks = find_peaks(multi_map, relative_threshold=PEAK_RELATIVE_THRESHOLD)
    chosen = select_nearest_to_trajectory(peaks, positions_m)
    others = [
        p for p in peaks if not np.allclose(p.position, chosen.position)
    ]
    from repro.localization.peaks import distance_to_polyline

    ghost_farther = all(
        distance_to_polyline(p.position, positions_m)
        >= chosen.distance_to_trajectory_m - 1e-9
        for p in others
    )
    return Fig6Result(
        los_heatmap=los_map,
        los_error_m=float(los_error),
        multipath_heatmap=multi_map,
        multipath_error_nearest_m=float(nearest.error_to(multi.tag_position)),
        multipath_error_argmax_m=float(argmax.error_to(multi.tag_position)),
        ghost_peaks_farther=bool(ghost_farther),
    )


def build_tasks(
    scenario: "str | Scenario" = "los_aisle",
    multipath_scenario: "str | Scenario" = "cold_storage_aisles",
    seed: int = 0,
) -> List[SweepTask]:
    """Both Fig. 6 panels as a single engine task.

    Each panel's world resolves from a named scenario spec; the specs
    ride inside the task params as canonical JSON so the cache key and
    the process pool both see the exact world definition.
    """
    return [
        SweepTask.make(
            _compute,
            params={
                "scenario_json": scenario_registry.resolve(
                    scenario
                ).to_json(),
                "multipath_scenario_json": scenario_registry.resolve(
                    multipath_scenario
                ).to_json(),
            },
            seed=seed,
            label="fig6/heatmaps",
        )
    ]


def reduce(
    payloads: Sequence[Fig6Result], params: Mapping[str, Any]
) -> Fig6Result:
    """Single-task sweep: the one payload is the result."""
    return payloads[0]


def format_result(result: Fig6Result) -> ExperimentOutput:
    """Render the two-panel comparison."""
    rows = [
        ["(a) line-of-sight", fmt(result.los_error_m), "single sharp peak"],
        [
            "(b) multipath, nearest-peak rule",
            fmt(result.multipath_error_nearest_m),
            "ghosts rejected",
        ],
        [
            "(b) multipath, argmax (no rule)",
            fmt(result.multipath_error_argmax_m),
            "may lock a ghost",
        ],
    ]
    return ExperimentOutput(
        name="Fig. 6 — localization heatmaps",
        headers=["panel", "error (m)", "behaviour"],
        rows=rows,
        paper_claims={
            "LoS error": "< 0.07 m",
            "ghosts farther than tag": "always (the §5.2 insight)",
        },
        measured={
            "LoS error": f"{result.los_error_m:.3f} m",
            "ghosts farther than tag": str(result.ghost_peaks_farther),
        },
        notes=(
            "ASCII rendering of panel (b):\n"
            + ascii_heatmap(result.multipath_heatmap)
        ),
    )
