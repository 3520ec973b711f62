"""Regenerates paper Fig. 9: isolation CDFs of the four leakage paths."""

import numpy as np
import pytest

from repro.experiments import fig9_isolation, registry
from repro.relay.self_interference import LeakagePath


@pytest.fixture(scope="module")
def result(runtime):
    return registry.run_experiment(
        "fig9_isolation", n_trials=40, seed=0, runtime=runtime
    ).result


def test_fig9_regeneration(benchmark, result, save_report, runtime):
    out = benchmark.pedantic(
        lambda: registry.run_experiment(
            "fig9_isolation", n_trials=10, seed=1, runtime=runtime
        ).result,
        rounds=1,
        iterations=1,
    )
    assert len(out.rfly[LeakagePath.INTER_DOWNLINK]) == 10
    save_report("fig9_isolation.txt", fig9_isolation.format_result(result))
    # Headline reproduction bands (also covered by the granular tests
    # below, which --benchmark-only skips).
    for path, expected in fig9_isolation.PAPER_MEDIANS_DB.items():
        assert float(np.median(result.rfly[path])) == pytest.approx(
            expected, abs=6.0
        ), path


def test_fig9_medians_match_paper(result):
    """Medians within a few dB of 110 / 92 / 77 / 64."""
    for path, expected in fig9_isolation.PAPER_MEDIANS_DB.items():
        measured = float(np.median(result.rfly[path]))
        assert measured == pytest.approx(expected, abs=6.0), path


def test_fig9_improvement_over_analog(result):
    """At least ~50 dB improvement on every path."""
    for path in LeakagePath:
        delta = float(
            np.median(result.rfly[path]) - np.median(result.analog[path])
        )
        assert delta >= 45.0


def test_fig9_orderings(result):
    """Inter > intra, downlink > uplink (paper's two observations)."""
    med = lambda p: float(np.median(result.rfly[p]))
    assert med(LeakagePath.INTER_DOWNLINK) > med(LeakagePath.INTRA_DOWNLINK)
    assert med(LeakagePath.INTER_UPLINK) > med(LeakagePath.INTRA_UPLINK)
    assert med(LeakagePath.INTER_DOWNLINK) > med(LeakagePath.INTER_UPLINK)
    assert med(LeakagePath.INTRA_DOWNLINK) > med(LeakagePath.INTRA_UPLINK)
