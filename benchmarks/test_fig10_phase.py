"""Regenerates paper Fig. 10: phase accuracy, mirrored vs no-mirror."""

import numpy as np
import pytest

from repro.experiments import fig10_phase, registry


@pytest.fixture(scope="module")
def result(runtime):
    return registry.run_experiment(
        "fig10_phase", n_trials=30, seed=0, runtime=runtime
    ).result


def test_fig10_regeneration(benchmark, result, save_report, runtime):
    out = benchmark.pedantic(
        lambda: registry.run_experiment(
            "fig10_phase", n_trials=6, seed=2, runtime=runtime
        ).result,
        rounds=1,
        iterations=1,
    )
    assert len(out.mirrored_errors_deg) == 6
    save_report("fig10_phase.txt", fig10_phase.format_result(result))
    assert float(np.median(result.mirrored_errors_deg)) < 1.0
    assert float(np.median(result.no_mirror_errors_deg)) > 30.0


def test_fig10_mirrored_sub_degree(result):
    """Paper: median 0.34 deg; ours must stay sub-degree."""
    assert float(np.median(result.mirrored_errors_deg)) < 1.0


def test_fig10_no_mirror_is_random(result):
    """A uniform phase has ~90 deg median absolute deviation."""
    assert float(np.median(result.no_mirror_errors_deg)) > 30.0


def test_fig10_separation(result):
    """The architectures differ by orders of magnitude."""
    mirrored = float(np.median(result.mirrored_errors_deg))
    baseline = float(np.median(result.no_mirror_errors_deg))
    assert baseline / max(mirrored, 1e-6) > 30.0
