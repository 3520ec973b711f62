"""Unit tests for the content-addressed result cache."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import ResultCache, SweepTask, cache_key

from tests.runtime import sweep_fns


def _task(n=4, seed=0):
    return SweepTask.make(sweep_fns.normal_sum, params={"n": n}, seed=seed)


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key(_task()) == cache_key(_task())

    def test_sensitive_to_params(self):
        assert cache_key(_task(n=4)) != cache_key(_task(n=5))

    def test_sensitive_to_seed(self):
        assert cache_key(_task(seed=0)) != cache_key(_task(seed=1))

    def test_sensitive_to_fn(self):
        a = SweepTask.make(sweep_fns.normal_sum, params={"n": 4}, seed=0)
        b = SweepTask.make(sweep_fns.normal_draw, params={"n": 4}, seed=0)
        assert cache_key(a) != cache_key(b)

    def test_sensitive_to_version(self):
        assert cache_key(_task(), version="1.0.0") != cache_key(
            _task(), version="1.0.1"
        )

    def test_hex_sha256(self):
        key = cache_key(_task())
        assert len(key) == 64
        int(key, 16)  # parses as hex


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(_task())
        hit, payload = cache.load(key)
        assert not hit and payload is None
        cache.store(key, {"answer": 42})
        hit, payload = cache.load(key)
        assert hit and payload == {"answer": 42}

    def test_hit_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(_task())
        original = sweep_fns.structured(32, 7)
        cache.store(key, original)
        _, loaded = cache.load(key)
        assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == (
            pickle.dumps(original, protocol=pickle.HIGHEST_PROTOCOL)
        )
        np.testing.assert_array_equal(loaded["values"], original["values"])

    def test_two_level_fanout(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(_task())
        assert cache.path_for(key).parent.name == key[:2]

    def test_malformed_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path).path_for("ab")

    def test_corrupt_entry_reads_as_miss_and_is_deleted(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(_task())
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        hit, payload = cache.load(key)
        assert not hit and payload is None
        assert not path.exists()

    def test_truncated_pickle_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(_task())
        cache.store(key, list(range(1000)))
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        hit, _ = cache.load(key)
        assert not hit

    def test_store_overwrites_atomically(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(_task())
        cache.store(key, "first")
        cache.store(key, "second")
        assert cache.load(key) == (True, "second")
        # No stray temp files left behind.
        assert not list(tmp_path.glob("**/.tmp-*"))

    def test_len_counts_stored_payloads(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        for seed in range(5):
            cache.store(cache_key(_task(seed=seed)), seed)
        assert len(cache) == 5
