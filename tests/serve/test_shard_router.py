"""Consistent-hash ring properties: purity, stability, bounded churn.

The ring's contract is deterministic, not statistical: a key's route
is a pure function of ``(shard_ids, replicas, key)``; removing a shard
leaves every other shard's keys exactly where they were (only the
removed shard's keys remigrate); and routing survives process
boundaries — notably differing ``PYTHONHASHSEED`` values, the failure
mode builtin ``hash()`` routing would hit (reprolint O503).
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.serve import ShardConfig, ShardRing

session_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=24,
)


@given(sid=session_ids, n_shards=st.integers(1, 12))
@settings(max_examples=50, deadline=None)
def test_routing_is_pure(sid, n_shards):
    """Same inputs, same route — across independent ring instances."""
    first = ShardRing(n_shards).route(sid)
    second = ShardRing(n_shards).route(sid)
    assert first == second
    assert first in ShardRing(n_shards).shard_ids


@given(
    sids=st.lists(session_ids, min_size=1, max_size=60, unique=True),
    n_shards=st.integers(2, 8),
    victim=st.integers(0, 7),
)
@settings(max_examples=30, deadline=None)
def test_removal_only_remigrates_the_removed_shard(sids, n_shards, victim):
    """The consistent-hashing property, exactly (not statistically)."""
    ring = ShardRing(n_shards)
    removed = ring.shard_ids[victim % n_shards]
    shrunk = ring.without(removed)
    for sid in sids:
        before = ring.route(sid)
        after = shrunk.route(sid)
        if before == removed:
            assert after != removed
        else:
            assert after == before


@given(
    sids=st.lists(session_ids, min_size=1, max_size=60, unique=True),
    n_shards=st.integers(1, 8),
)
@settings(max_examples=30, deadline=None)
def test_adding_a_shard_only_steals_keys(sids, n_shards):
    """Scale-out moves keys only *onto* the new shard, never sideways."""
    ring = ShardRing(n_shards)
    grown = ShardRing(ring.shard_ids + ("shard-new",))
    for sid in sids:
        before = ring.route(sid)
        after = grown.route(sid)
        assert after in (before, "shard-new")


def test_remigration_fraction_is_about_one_over_m():
    """Dropping 1 of M shards strands ~1/M of a large keyspace."""
    keys = [f"tag-{index:05d}" for index in range(4000)]
    for n_shards in (2, 4, 8):
        ring = ShardRing(n_shards)
        shrunk = ring.without(ring.shard_ids[0])
        moved = sum(
            1 for key in keys if ring.route(key) != shrunk.route(key)
        )
        fraction = moved / len(keys)
        # The moved set is exactly the removed shard's keys; vnode
        # placement noise keeps it near 1/M but not at it.
        assert fraction <= 2.5 / n_shards
        assert fraction >= 0.25 / n_shards


def test_ring_is_reasonably_balanced():
    """64 vnodes/shard keep every shard within ~3x of its fair share."""
    keys = [f"tag-{index:05d}" for index in range(4000)]
    ring = ShardRing(8)
    table = ring.table(keys)
    for shard_id in ring.shard_ids:
        owned = sum(1 for assigned in table.values() if assigned == shard_id)
        assert 0 < owned <= 3 * len(keys) / 8


def test_routing_survives_hash_seed_changes():
    """Routes computed under a different PYTHONHASHSEED are identical.

    This is exactly what builtin ``hash()``-based placement breaks:
    str hashing is salted per process, so a pool worker would route
    the same session to a different shard than its parent.
    """
    keys = [f"tag-{index:03d}" for index in range(40)]
    local = [ShardRing(4).route(key) for key in keys]
    script = (
        "from repro.serve import ShardRing\n"
        "ring = ShardRing(4)\n"
        f"print(','.join(ring.route(f'tag-{{i:03d}}') for i in range({len(keys)})))\n"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "271828"
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout.strip()
    assert output.split(",") == local


def test_ring_validation():
    with pytest.raises(ConfigurationError):
        ShardRing(0)
    with pytest.raises(ConfigurationError):
        ShardRing([])
    with pytest.raises(ConfigurationError):
        ShardRing(["a", "a"])
    with pytest.raises(ConfigurationError):
        ShardRing(2, replicas=0)
    with pytest.raises(ConfigurationError):
        ShardRing(2).without("nope")


def test_shard_config_validation():
    assert ShardConfig().shard_ids() == ("shard-00",)
    assert ShardConfig(n_shards=3).ring().shard_ids == (
        "shard-00",
        "shard-01",
        "shard-02",
    )
    with pytest.raises(ConfigurationError):
        ShardConfig(n_shards=0)
    with pytest.raises(ConfigurationError):
        ShardConfig(replicas=0)
    with pytest.raises(ConfigurationError):
        ShardConfig(backend="threads")
    with pytest.raises(ConfigurationError):
        ShardConfig(max_workers=0)
