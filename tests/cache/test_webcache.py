"""Tests for the proxy cache substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import DEFAULT_MAX_OBJECT_SIZE, WebCache
from repro.errors import ConfigurationError


class TestBasics:
    def test_put_and_get(self):
        cache = WebCache(1000)
        cache.put("u1", 100)
        entry = cache.get("u1")
        assert entry is not None and entry.size == 100
        assert "u1" in cache
        assert cache.used_bytes == 100

    def test_miss_returns_none(self):
        cache = WebCache(1000)
        assert cache.get("absent") is None

    def test_peek_does_not_touch_recency(self):
        cache = WebCache(200)
        cache.put("a", 100)
        cache.put("b", 100)
        cache.peek("a")  # would rescue "a" if it updated recency
        cache.put("c", 100)
        assert "a" not in cache

    def test_capacity_enforced_by_lru_eviction(self):
        cache = WebCache(300)
        for name in ("a", "b", "c"):
            cache.put(name, 100)
        cache.get("a")  # refresh a
        evicted = cache.put("d", 100)
        assert evicted == ["b"]
        assert set(cache.urls()) == {"a", "c", "d"}
        assert cache.used_bytes == 300

    def test_paper_250kb_admission_rule(self):
        cache = WebCache(10 * 2**20)
        evicted = cache.put("huge", DEFAULT_MAX_OBJECT_SIZE + 1)
        assert evicted == []
        assert "huge" not in cache
        assert cache.stats.rejected_too_large == 1

    def test_object_larger_than_cache_rejected(self):
        cache = WebCache(100, max_object_size=None)
        cache.put("big", 200)
        assert "big" not in cache

    def test_disable_size_limit(self):
        cache = WebCache(10 * 2**20, max_object_size=None)
        cache.put("huge", 2 * 2**20)
        assert "huge" in cache

    def test_remove(self):
        cache = WebCache(1000)
        cache.put("a", 10)
        assert cache.remove("a") is True
        assert cache.remove("a") is False
        assert cache.used_bytes == 0

    def test_touch(self):
        cache = WebCache(200)
        cache.put("a", 100)
        cache.put("b", 100)
        assert cache.touch("a") is True
        cache.put("c", 100)
        assert "a" in cache and "b" not in cache
        assert cache.touch("nope") is False

    def test_clear(self):
        cache = WebCache(1000)
        cache.put("a", 10)
        cache.put("b", 10)
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WebCache(0)
        with pytest.raises(ConfigurationError):
            WebCache(100, max_object_size=0)
        with pytest.raises(ConfigurationError):
            WebCache(100).put("u", -1)


class TestVersioning:
    def test_version_mismatch_is_stale_miss(self):
        cache = WebCache(1000)
        cache.put("u", 100, version=1)
        assert cache.get("u", version=2) is None
        assert cache.stats.stale_hits == 1
        # The stale copy is dropped so the fresh one can be admitted.
        assert "u" not in cache

    def test_matching_version_is_hit(self):
        cache = WebCache(1000)
        cache.put("u", 100, version=3)
        assert cache.get("u", version=3) is not None

    def test_probe_classifies_without_side_effects(self):
        cache = WebCache(1000)
        cache.put("u", 100, version=1)
        assert cache.probe("u", version=1) == "hit"
        assert cache.probe("u", version=2) == "stale"
        assert cache.probe("v") == "miss"
        # probe never removes or counts.
        assert "u" in cache
        assert cache.stats.requests == 0

    def test_readmission_updates_size_and_version(self):
        cache = WebCache(1000)
        cache.put("u", 100, version=1)
        cache.put("u", 300, version=2)
        assert cache.used_bytes == 300
        assert cache.get("u", version=2).version == 2
        assert len(cache) == 1


class TestCallbacks:
    def test_insert_and_evict_callbacks_pair_up(self):
        inserted, evicted = [], []
        cache = WebCache(
            300,
            on_insert=inserted.append,
            on_evict=evicted.append,
        )
        for i in range(5):
            cache.put(f"u{i}", 100)
        assert inserted == [f"u{i}" for i in range(5)]
        assert evicted == ["u0", "u1"]
        # Invariant: inserted minus evicted == current contents.
        assert set(inserted) - set(evicted) == set(cache.urls())

    def test_remove_fires_evict_callback(self):
        evicted = []
        cache = WebCache(300, on_evict=evicted.append)
        cache.put("u", 100)
        cache.remove("u")
        assert evicted == ["u"]

    def test_rejected_put_fires_no_callbacks(self):
        inserted = []
        cache = WebCache(300, on_insert=inserted.append)
        cache.put("huge", DEFAULT_MAX_OBJECT_SIZE + 1)
        assert inserted == []


class TestPolicies:
    def test_size_policy_evicts_largest_first(self):
        cache = WebCache(600, policy="size")
        cache.put("small", 100)
        cache.put("large", 400)
        cache.put("mid", 200)  # overflow: 700 > 600
        assert "large" not in cache
        assert {"small", "mid"} <= set(cache.urls())

    def test_newcomer_protected_from_self_eviction(self):
        # With the SIZE policy a big newcomer would pick itself as
        # victim; the cache must evict something else instead.
        cache = WebCache(500, policy="size", max_object_size=None)
        cache.put("a", 200)
        cache.put("b", 150)
        cache.put("newcomer", 400)
        assert "newcomer" in cache

    def test_fifo_policy(self):
        cache = WebCache(300, policy="fifo")
        for name in ("a", "b", "c"):
            cache.put(name, 100)
        cache.get("a")
        cache.put("d", 100)
        assert "a" not in cache  # access did not save it

    def test_policy_instance_accepted(self):
        from repro.cache.policies import LRUPolicy

        cache = WebCache(100, policy=LRUPolicy())
        cache.put("u", 50)
        assert "u" in cache


class TestStats:
    def test_hit_and_byte_ratios(self):
        cache = WebCache(1000)
        cache.put("u", 100)
        cache.get("u", size=100)
        cache.get("missing", size=50)
        stats = cache.stats
        assert stats.requests == 2
        assert stats.hits == 1
        assert stats.hit_ratio == pytest.approx(0.5)
        assert stats.bytes_hit == 100
        assert stats.byte_hit_ratio == pytest.approx(100 / 150)

    def test_merge(self):
        cache = WebCache(1000)
        cache.put("u", 100)
        cache.get("u")
        merged = cache.stats.merge(cache.stats)
        assert merged.requests == 2
        assert merged.hits == 2


@given(
    st.lists(
        st.tuples(
            st.integers(0, 25),
            st.integers(1, 400),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=60, deadline=None)
def test_invariants_under_random_workload(ops):
    """Capacity is never exceeded, byte accounting matches contents, and
    callback streams reconstruct the cache exactly."""
    inserted, evicted = [], []
    cache = WebCache(
        1000,
        max_object_size=500,
        on_insert=inserted.append,
        on_evict=evicted.append,
    )
    for doc, size in ops:
        cache.put(f"u{doc}", size)
        assert cache.used_bytes <= 1000
    live = {}
    for url in inserted:
        live[url] = live.get(url, 0) + 1
    for url in evicted:
        live[url] -= 1
    reconstructed = {u for u, n in live.items() if n > 0}
    assert reconstructed == set(cache.urls())
    assert cache.used_bytes == sum(
        cache.peek(u).size for u in cache.urls()
    )
