"""Regenerates paper Fig. 12: the end-to-end localization error CDF."""

import numpy as np
import pytest

from repro.experiments import fig12_localization, registry
from repro.sim.results import percentile


@pytest.fixture(scope="module")
def result(runtime):
    # 60 trials keep the bench under a minute; the full 100-trial run
    # (python -m repro.experiments run fig12) matches within a couple
    # of centimeters.
    return registry.run_experiment(
        "fig12_localization", n_trials=60, seed=0, runtime=runtime
    ).result


def test_fig12_regeneration(benchmark, result, save_report, runtime):
    out = benchmark.pedantic(
        lambda: registry.run_experiment(
            "fig12_localization", n_trials=5, seed=3, runtime=runtime
        ).result,
        rounds=1,
        iterations=1,
    )
    assert len(out.errors_m) == 5
    save_report(
        "fig12_localization.txt", fig12_localization.format_result(result)
    )
    assert 0.10 <= float(np.median(result.errors_m)) <= 0.30
    assert percentile(result.errors_m, 90.0) < 1.0


def test_fig12_median_near_19cm(result):
    """Paper median 0.19 m; accept the 0.10-0.30 m band."""
    median = float(np.median(result.errors_m))
    assert 0.10 <= median <= 0.30


def test_fig12_p90_sub_meter(result):
    """Paper p90 0.53 m; ours must stay sub-meter."""
    assert percentile(result.errors_m, 90.0) < 1.0


def test_fig12_cdf_is_valid(result):
    values, probs = result.cdf()
    assert np.all(np.diff(values) >= 0)
    assert probs[-1] == pytest.approx(1.0)
    assert np.all(values >= 0)
