"""Regenerates paper Fig. 14: accuracy vs projected reader distance."""

import numpy as np
import pytest

from repro.experiments import fig14_distance, registry
from repro.sim.results import percentile


@pytest.fixture(scope="module")
def result(runtime):
    return registry.run_experiment(
        "fig14_distance", trials_per_point=10, seed=0, runtime=runtime
    ).result


def test_fig14_regeneration(benchmark, result, save_report, runtime):
    out = benchmark.pedantic(
        lambda: registry.run_experiment(
            "fig14_distance",
            distances_m=(5.0, 55.0),
            trials_per_point=3,
            seed=5,
            runtime=runtime,
        ).result,
        rounds=1,
        iterations=1,
    )
    assert set(out.sar_errors) == {5.0, 55.0}
    save_report("fig14_distance.txt", fig14_distance.format_result(result))
    assert float(np.median(result.sar_errors[55.0])) > float(
        np.median(result.sar_errors[5.0])
    )
    assert float(np.median(result.sar_errors[40.0])) < 0.20


def test_fig14_error_grows_with_distance(result):
    near = float(np.median(result.sar_errors[5.0]))
    far = float(np.median(result.sar_errors[55.0]))
    assert far > near


def test_fig14_sub_20cm_at_40m(result):
    """Paper: median < 18 cm at a projected distance of 40 m."""
    assert float(np.median(result.sar_errors[40.0])) < 0.20


def test_fig14_degrades_past_50m(result):
    """Paper: p90 grows substantially beyond 50 m (SNR < 3 dB)."""
    p90_55 = percentile(result.sar_errors[55.0], 90.0)
    p90_20 = percentile(result.sar_errors[20.0], 90.0)
    assert p90_55 > 1.5 * p90_20


def test_fig14_sar_beats_rssi_everywhere(result):
    for d in result.distances_m:
        sar = float(np.median(result.sar_errors[float(d)]))
        rssi = float(np.median(result.rssi_errors[float(d)]))
        assert sar < rssi
