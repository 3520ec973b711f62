"""Regenerates paper Fig. 11: read rate vs distance, three curves."""

import numpy as np
import pytest

from repro.experiments import fig11_range, registry


@pytest.fixture(scope="module")
def result(runtime):
    return registry.run_experiment(
        "fig11_range", trials_per_point=200, seed=0, runtime=runtime
    ).result


def test_fig11_regeneration(benchmark, result, save_report, runtime):
    out = benchmark.pedantic(
        lambda: registry.run_experiment(
            "fig11_range", trials_per_point=50, seed=1, runtime=runtime
        ).result,
        rounds=1,
        iterations=1,
    )
    assert set(out.rates) == {"no_relay", "relay_los", "relay_nlos"}
    save_report("fig11_range.txt", fig11_range.format_result(result))
    assert _rate(result, "no_relay", 10.0) < 0.10
    assert _rate(result, "relay_los", 50.0) > 0.95
    assert 0.6 < _rate(result, "relay_nlos", 55.0) <= 1.0


def _rate(result, mode, distance):
    idx = int(np.argmin(np.abs(result.distances_m - distance)))
    return float(result.rates[mode][idx])


def test_fig11_no_relay_dies_by_10m(result):
    assert _rate(result, "no_relay", 10.0) < 0.10
    assert _rate(result, "no_relay", 2.0) > 0.95


def test_fig11_relay_los_full_rate_at_50m(result):
    assert _rate(result, "relay_los", 50.0) > 0.95


def test_fig11_relay_nlos_roughly_75pct_at_55m(result):
    assert 0.6 < _rate(result, "relay_nlos", 55.0) <= 1.0


def test_fig11_ten_x_range_improvement(result):
    """Relay range (last distance with >90% reads) ~10x the no-relay one."""
    def max_range(mode):
        good = result.rates[mode] > 0.9
        return float(result.distances_m[good][-1]) if np.any(good) else 0.0

    assert max_range("relay_los") >= 8.0 * max_range("no_relay")


def test_fig11_nlos_below_los(result):
    for d in (40.0, 50.0, 55.0):
        assert _rate(result, "relay_nlos", d) <= _rate(result, "relay_los", d) + 0.05
