"""Property-based tests of the inventory MAC."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.gen2 import Gen2Tag, run_inventory
from repro.gen2.bitops import bits_from_int


def population(n, seed):
    rng = np.random.default_rng(seed)
    epcs = rng.choice(2**32, size=n, replace=False)
    return [
        Gen2Tag(bits_from_int(int(e), 96), np.random.default_rng(seed + 1 + i))
        for i, e in enumerate(epcs)
    ]


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**20), st.integers(0, 4))
def test_inventory_is_complete_and_duplicate_free(n, seed, q0):
    """Any population is fully read, each tag exactly once per pass."""
    tags = population(n, seed)
    result = run_inventory(
        tags, np.random.default_rng(seed ^ 0xABC), initial_q=q0
    )
    assert sorted(result.epcs) == sorted(t.epc_int for t in tags)
    assert len(result.epcs) == len(set(result.epcs))


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 25), st.integers(0, 2**20))
def test_all_flags_toggled_after_pass(n, seed):
    """After a target-A pass every read tag carries flag B."""
    tags = population(n, seed)
    run_inventory(tags, np.random.default_rng(seed + 7), target="A")
    assert all(t.inventoried["S0"] == "B" for t in tags)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(2, 20),
    st.integers(0, 2**20),
    st.sampled_from(["S1", "S2", "S3"]),
)
def test_sessions_are_independent(n, seed, session):
    """Inventorying one session leaves the others' flags untouched."""
    tags = population(n, seed)
    result = run_inventory(
        tags, np.random.default_rng(seed + 13), session=session
    )
    assert len(result.epcs) == n
    for tag in tags:
        assert tag.inventoried[session] == "B"
        for other in ("S0", "S1", "S2", "S3"):
            if other != session:
                assert tag.inventoried[other] == "A"


@settings(max_examples=6, deadline=None)
@given(st.integers(5, 30), st.integers(0, 2**20))
def test_commands_scale_reasonably(n, seed):
    """The MAC converges: commands stay within a small multiple of the
    population size (Q-adaptation prevents collision collapse)."""
    tags = population(n, seed)
    result = run_inventory(tags, np.random.default_rng(seed + 3), initial_q=4)
    assert result.commands_sent < 40 * n + 200
