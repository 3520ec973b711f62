"""Tests for path-loss models, anchored to the paper's Eq. 3-4 numbers."""

import pytest
from hypothesis import given, strategies as st

from repro.channel.pathloss import (
    free_space_amplitude,
    free_space_path_loss_db,
    free_space_range_for_loss,
    log_distance_path_loss_db,
)
from repro.constants import UHF_CENTER_FREQUENCY
from repro.errors import LinkBudgetError

F = UHF_CENTER_FREQUENCY


class TestFreeSpace:
    def test_known_value_at_one_meter(self):
        # 20 log10(4 pi / lambda) at 915 MHz ~= 31.7 dB.
        assert free_space_path_loss_db(1.0, F) == pytest.approx(31.67, abs=0.05)

    def test_six_db_per_doubling(self):
        assert free_space_path_loss_db(20.0, F) - free_space_path_loss_db(
            10.0, F
        ) == pytest.approx(6.02, abs=0.01)

    def test_amplitude_squares_to_gain(self):
        import numpy as np

        amp = free_space_amplitude(7.0, F)
        assert 20.0 * np.log10(amp) == pytest.approx(-free_space_path_loss_db(7.0, F))

    def test_invalid_inputs(self):
        with pytest.raises(LinkBudgetError):
            free_space_path_loss_db(0.0, F)
        with pytest.raises(LinkBudgetError):
            free_space_path_loss_db(1.0, -1.0)


class TestRangeForLoss:
    """Paper Eq. 4: isolation -> maximum stable relay range."""

    def test_thirty_db_is_sub_meter(self):
        r = free_space_range_for_loss(30.0, F)
        assert 0.7 < r < 0.9  # paper: 0.75 m

    def test_eighty_db_is_hundreds_of_meters(self):
        r = free_space_range_for_loss(80.0, F)
        assert 230.0 < r < 270.0  # paper: 238 m

    def test_seventy_db_matches_lisolation_claim(self):
        """Paper §7.2: >70 dB isolation -> theoretical LoS range 83 m."""
        r = free_space_range_for_loss(70.0, F)
        assert 75.0 < r < 90.0

    def test_inverse_of_path_loss(self):
        r = free_space_range_for_loss(55.0, F)
        assert free_space_path_loss_db(r, F) == pytest.approx(55.0, abs=1e-9)

    @given(st.floats(min_value=10.0, max_value=120.0))
    def test_roundtrip_property(self, loss_db):
        r = free_space_range_for_loss(loss_db, F)
        assert free_space_path_loss_db(r, F) == pytest.approx(loss_db, abs=1e-6)


class TestLogDistance:
    def test_matches_free_space_at_reference(self):
        assert log_distance_path_loss_db(1.0, F) == pytest.approx(
            free_space_path_loss_db(1.0, F)
        )

    def test_steeper_decay_beyond_reference(self):
        fs = free_space_path_loss_db(10.0, F)
        ld = log_distance_path_loss_db(10.0, F, exponent=3.0)
        assert ld > fs

    def test_below_reference_uses_free_space(self):
        assert log_distance_path_loss_db(0.5, F, exponent=4.0) == pytest.approx(
            free_space_path_loss_db(0.5, F)
        )

    def test_exponent_scaling(self):
        l2 = log_distance_path_loss_db(100.0, F, exponent=2.0)
        l4 = log_distance_path_loss_db(100.0, F, exponent=4.0)
        assert l4 - l2 == pytest.approx(10.0 * 2.0 * 2.0)  # 10*(4-2)*log10(100)

    def test_invalid_exponent(self):
        with pytest.raises(LinkBudgetError):
            log_distance_path_loss_db(10.0, F, exponent=0.0)

    @given(
        st.floats(min_value=0.1, max_value=500.0),
        st.floats(min_value=2.0, max_value=4.0),
    )
    def test_monotone_in_distance(self, d, n):
        a = log_distance_path_loss_db(d, F, exponent=n)
        b = log_distance_path_loss_db(d * 1.5, F, exponent=n)
        assert b > a
