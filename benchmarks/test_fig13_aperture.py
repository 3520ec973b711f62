"""Regenerates paper Fig. 13: accuracy vs flight-path aperture."""

import numpy as np
import pytest

from repro.experiments import fig13_aperture, registry


@pytest.fixture(scope="module")
def result(runtime):
    return registry.run_experiment(
        "fig13_aperture", trials_per_point=15, seed=0, runtime=runtime
    ).result


def test_fig13_regeneration(benchmark, result, save_report, runtime):
    out = benchmark.pedantic(
        lambda: registry.run_experiment(
            "fig13_aperture",
            apertures_m=(0.5, 2.5),
            trials_per_point=3,
            seed=4,
            runtime=runtime,
        ).result,
        rounds=1,
        iterations=1,
    )
    assert set(out.sar_errors) == {0.5, 2.5}
    save_report("fig13_aperture.txt", fig13_aperture.format_result(result))
    medians = [
        float(np.median(result.sar_errors[float(a)]))
        for a in result.apertures_m
    ]
    assert medians[-1] < medians[0] and medians[-1] < 0.10


def test_fig13_accuracy_improves_with_aperture(result):
    """Paper: monotone improvement with aperture size."""
    medians = [
        float(np.median(result.sar_errors[float(a)])) for a in result.apertures_m
    ]
    assert medians[-1] < medians[0]
    # Largest aperture reaches the few-centimeter regime.
    assert medians[-1] < 0.10


def test_fig13_small_aperture_about_20cm(result):
    """Paper: ~22 cm median at a 0.5 m aperture."""
    median = float(np.median(result.sar_errors[0.5]))
    assert 0.08 <= median <= 0.40


def test_fig13_sar_beats_rssi_by_order_of_magnitude(result):
    """Paper: the SAR error is ~20x lower than RSSI at 2.5 m aperture."""
    widest = float(result.apertures_m.max())
    sar = float(np.median(result.sar_errors[widest]))
    rssi = float(np.median(result.rssi_errors[widest]))
    assert rssi / sar > 5.0


def test_fig13_rssi_around_a_meter(result):
    """Paper: RSSI median ~1 m at the largest aperture."""
    widest = float(result.apertures_m.max())
    assert 0.2 <= float(np.median(result.rssi_errors[widest])) <= 1.5
