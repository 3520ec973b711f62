"""Regenerates paper Fig. 6: the P(x, y) heatmaps."""

import pytest

from repro.experiments import fig6_heatmap, registry


@pytest.fixture(scope="module")
def result(runtime):
    return registry.run_experiment(
        "fig6_heatmap", seed=0, runtime=runtime
    ).result


def test_fig6_regeneration(benchmark, result, save_report, runtime):
    out = benchmark.pedantic(
        lambda: registry.run_experiment(
            "fig6_heatmap", seed=1, runtime=runtime
        ).result,
        rounds=1,
        iterations=1,
    )
    assert out.los_heatmap.values.size > 0
    save_report("fig6_heatmap.txt", fig6_heatmap.format_result(result))
    assert result.los_error_m < 0.07
    assert result.ghost_peaks_farther


def test_fig6_los_error_under_7cm(result):
    """Paper's example LoS trial errs by less than 7 cm."""
    assert result.los_error_m < 0.07


def test_fig6_ghosts_farther_than_tag(result):
    """The §5.2 insight holds on the multipath heatmap."""
    assert result.ghost_peaks_farther


def test_fig6_nearest_rule_not_worse_than_argmax(result):
    assert (
        result.multipath_error_nearest_m
        <= result.multipath_error_argmax_m + 1e-9
    )


def test_fig6_heatmap_peak_near_tag_los(result):
    heatmap = result.los_heatmap
    peak_position = heatmap.argmax_position()
    import numpy as np

    from repro.scenarios.trials import heatmap_trial

    tag = heatmap_trial("los_aisle", 0).tag_position
    assert float(np.linalg.norm(peak_position - tag)) < 0.15


def test_fig6_ascii_rendering(result):
    art = fig6_heatmap.ascii_heatmap(result.multipath_heatmap)
    assert "@" in art or "%" in art  # a hot peak exists
    assert len(art.splitlines()) > 10
