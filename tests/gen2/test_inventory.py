"""Tests for the reader's anti-collision inventory MAC."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.gen2 import Gen2Tag, QAlgorithm, SlotOutcome, run_inventory
from repro.gen2.bitops import bits_from_int


def make_population(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Gen2Tag(bits_from_int(int(rng.integers(0, 2**60)), 96),
                np.random.default_rng(seed + 1 + i))
        for i in range(n)
    ]


class TestQAlgorithm:
    def test_collision_raises_q(self):
        alg = QAlgorithm(initial_q=4, c=0.5)
        alg.update(SlotOutcome.COLLISION)
        assert alg.qfp == pytest.approx(4.5)

    def test_idle_lowers_q(self):
        alg = QAlgorithm(initial_q=4, c=0.5)
        alg.update(SlotOutcome.IDLE)
        assert alg.qfp == pytest.approx(3.5)

    def test_success_keeps_q(self):
        alg = QAlgorithm(initial_q=4, c=0.5)
        assert alg.update(SlotOutcome.SUCCESS) == 0
        assert alg.qfp == pytest.approx(4.0)

    def test_updn_reported_on_integer_change(self):
        # With c=0.3, Qfp 4.0 -> 4.3 still rounds to 4: no adjustment yet;
        # the second collision crosses to 4.6 -> 5 and reports +1.
        alg = QAlgorithm(initial_q=4, c=0.3)
        assert alg.update(SlotOutcome.COLLISION) == 0
        assert alg.update(SlotOutcome.COLLISION) == 1

    def test_q_clamped(self):
        alg = QAlgorithm(initial_q=0, c=0.5)
        alg.update(SlotOutcome.IDLE)
        assert alg.qfp == 0.0
        alg = QAlgorithm(initial_q=15, c=0.5)
        alg.update(SlotOutcome.COLLISION)
        assert alg.qfp == 15.0

    def test_invalid_parameters(self):
        with pytest.raises(ProtocolError):
            QAlgorithm(initial_q=16)
        with pytest.raises(ProtocolError):
            QAlgorithm(c=0.05)


class TestRunInventory:
    def test_single_tag_read(self):
        tags = make_population(1)
        result = run_inventory(tags, np.random.default_rng(0))
        assert result.epcs == [tags[0].epc_int]

    def test_all_tags_eventually_read(self):
        tags = make_population(30, seed=42)
        result = run_inventory(tags, np.random.default_rng(0))
        assert set(result.epcs) == {t.epc_int for t in tags}

    def test_no_duplicate_reads_in_one_pass(self):
        tags = make_population(15, seed=7)
        result = run_inventory(tags, np.random.default_rng(0))
        assert len(result.epcs) == len(set(result.epcs))

    def test_collisions_occur_with_dense_population(self):
        tags = make_population(50, seed=3)
        result = run_inventory(tags, np.random.default_rng(1), initial_q=1)
        assert any(s.outcome == SlotOutcome.COLLISION for s in result.slots)
        assert set(result.epcs) == {t.epc_int for t in tags}

    def test_hears_predicate_limits_population(self):
        tags = make_population(10, seed=9)
        audible = set(id(t) for t in tags[:4])
        result = run_inventory(
            tags, np.random.default_rng(0), hears=lambda t: id(t) in audible
        )
        assert set(result.epcs) == {t.epc_int for t in tags[:4]}

    def test_decode_failures_recorded(self):
        tags = make_population(5, seed=11)
        # Reader never decodes: every reply is a decode error; terminates
        # by max_slots.
        result = run_inventory(
            tags,
            np.random.default_rng(0),
            decodes=lambda t: False,
            max_slots=200,
        )
        assert result.epcs == []
        assert any(s.outcome == SlotOutcome.DECODE_ERROR for s in result.slots)

    def test_without_query_adjust(self):
        tags = make_population(20, seed=13)
        result = run_inventory(
            tags, np.random.default_rng(0), use_query_adjust=False
        )
        assert set(result.epcs) == {t.epc_int for t in tags}

    def test_empty_population(self):
        result = run_inventory([], np.random.default_rng(0), max_slots=10)
        assert result.epcs == []

    def test_second_target_pass_reads_inverted_flags(self):
        """After an A-pass, tags carry flag B and answer a B-pass."""
        tags = make_population(8, seed=17)
        first = run_inventory(tags, np.random.default_rng(0), target="A")
        assert len(first.epcs) == 8
        second = run_inventory(tags, np.random.default_rng(1), target="B")
        assert set(second.epcs) == set(first.epcs)

    def test_statistics_add_up(self):
        tags = make_population(25, seed=19)
        result = run_inventory(tags, np.random.default_rng(2))
        # Every singulated slot is one read EPC.
        successes = [s for s in result.slots if s.outcome == SlotOutcome.SUCCESS]
        assert len(successes) == len(result.epcs)
        assert [s.epc for s in successes] == result.epcs
