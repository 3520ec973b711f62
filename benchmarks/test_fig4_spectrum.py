"""Regenerates paper Fig. 4: the query/response guard band."""

import pytest

from repro.experiments import fig4_spectrum, registry


@pytest.fixture(scope="module")
def result(runtime):
    return registry.run_experiment(
        "fig4_spectrum", seed=0, runtime=runtime
    ).result


def test_fig4_regeneration(benchmark, result, save_report, runtime):
    out = benchmark.pedantic(
        lambda: registry.run_experiment(
            "fig4_spectrum", seed=1, runtime=runtime
        ).result,
        rounds=1,
        iterations=1,
    )
    assert out.frequencies_hz.size > 0
    save_report("fig4_spectrum.txt", fig4_spectrum.format_result(result))
    # Headline shape: the query hugs the carrier, the response sits at
    # the BLF, and a guard band separates them.
    assert result.query_occupied_bandwidth_hz < 250e3
    assert 350e3 < result.response_peak_offset_hz < 650e3
    assert result.guard_band_hz > 50e3


def test_fig4_query_narrowband(result):
    """Paper: query constrained within ~125 kHz."""
    assert result.query_occupied_bandwidth_hz < 250e3


def test_fig4_response_at_blf(result):
    assert 350e3 < result.response_peak_offset_hz < 650e3


def test_fig4_guard_band_exists(result):
    assert result.guard_band_hz > 50e3
