"""Non-finite numbers fail typed at the serve and localization boundary.

A NaN or infinite frequency, grid bound, SLO or workload knob must be
refused where it enters, as the package's own error type naming what
was wrong, never turned into an empty stream, a NaN timestamp, a fix
at the origin or a bare numpy ``ValueError``. The serve CLI turns the
same refusal into one stderr line and exit status 2.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import ConfigurationError, LocalizationError
from repro.localization import Grid2D, IncrementalSar, Localizer, sar_heatmap
from repro.scenarios.compiler import generate_workload
from repro.serve import ServeConfig
from repro.serve.__main__ import main

F = UHF_CENTER_FREQUENCY
NAN = math.nan
INF = math.inf
GRID = Grid2D(0.0, 2.0, 0.5, 2.0, 0.1)
LINE = np.column_stack([np.linspace(0.0, 2.0, 11), np.zeros(11)])


def _workload(**knobs):
    return generate_workload("conveyor_flow_through", n_tags=2, seed=0, **knobs)


CASES = {
    "serve_config_frequency_nan": (
        lambda: ServeConfig(frequency_hz=NAN),
        ConfigurationError,
        "frequency_hz: must be finite",
    ),
    "serve_config_slo_inf": (
        lambda: ServeConfig(frequency_hz=F, latency_slo_s=INF),
        ConfigurationError,
        "latency_slo_s: must be finite",
    ),
    "localizer_frequency_nan": (
        lambda: Localizer(frequency_hz=NAN),
        LocalizationError,
        "frequency must be positive and finite",
    ),
    "localizer_frequency_inf": (
        lambda: Localizer(frequency_hz=INF),
        LocalizationError,
        "frequency must be positive and finite",
    ),
    "incremental_frequency_nan": (
        lambda: IncrementalSar(NAN, GRID),
        LocalizationError,
        "frequency must be positive and finite",
    ),
    "sar_heatmap_frequency_nan": (
        lambda: sar_heatmap(LINE, np.ones(len(LINE), dtype=complex), GRID, NAN),
        LocalizationError,
        "frequency must be positive and finite",
    ),
    "grid_resolution_nan": (
        lambda: Grid2D(0.0, 1.0, 0.0, 1.0, NAN),
        LocalizationError,
        "grid fields must be finite",
    ),
    "grid_extent_inf": (
        lambda: Grid2D(0.0, INF, 0.0, 1.0, 0.1),
        LocalizationError,
        "grid fields must be finite",
    ),
    "workload_load_nan": (
        lambda: _workload(load=NAN),
        ConfigurationError,
        "load: must be finite",
    ),
    "workload_load_inf": (
        lambda: _workload(load=INF),
        ConfigurationError,
        "load: must be finite",
    ),
    "workload_powering_range_nan": (
        lambda: _workload(powering_range_m=NAN),
        ConfigurationError,
        "powering_range_m: must be finite",
    ),
    "workload_pose_spacing_nan": (
        lambda: _workload(pose_spacing_m=NAN),
        ConfigurationError,
        "spacing_m: must be finite",
    ),
    "workload_grid_resolution_nan": (
        lambda: _workload(grid_resolution=NAN),
        ConfigurationError,
        "resolution_m: must be finite",
    ),
    "cli_load_nan": (
        lambda: main(["--smoke", "--load", "nan"]),
        SystemExit,
        "load: must be finite",
    ),
    "cli_latency_slo_nan": (
        lambda: main(["--smoke", "--latency-slo-ms", "nan"]),
        SystemExit,
        "latency_slo_s: must be finite",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_fails_typed(case, capsys):
    build, error, message = CASES[case]
    with pytest.raises(error) as raised:
        build()
    if error is SystemExit:
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("python -m repro.serve: error: ")
        assert message in line
    else:
        assert message in str(raised.value)
