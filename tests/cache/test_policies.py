"""Tests for the replacement policies."""

from __future__ import annotations

import pytest

from repro.cache.policies import (
    _HEAP_FLOOR,
    FIFOPolicy,
    GDSFPolicy,
    LFUPolicy,
    LRUPolicy,
    SizePolicy,
    make_policy,
)
from repro.errors import ConfigurationError


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUPolicy()
        for key in "abc":
            policy.on_insert(key, 1)
        policy.on_access("a")
        assert policy.victim() == "b"

    def test_remove(self):
        policy = LRUPolicy()
        policy.on_insert("a", 1)
        policy.on_insert("b", 1)
        policy.on_remove("a")
        assert policy.victim() == "b"
        assert len(policy) == 1


class TestFIFO:
    def test_access_does_not_refresh(self):
        policy = FIFOPolicy()
        for key in "abc":
            policy.on_insert(key, 1)
        policy.on_access("a")
        assert policy.victim() == "a"


class TestLFU:
    def test_evicts_least_frequent(self):
        policy = LFUPolicy()
        for key in "abc":
            policy.on_insert(key, 1)
        policy.on_access("a")
        policy.on_access("a")
        policy.on_access("b")
        assert policy.victim() == "c"

    def test_tie_broken_by_recency(self):
        policy = LFUPolicy()
        policy.on_insert("a", 1)
        policy.on_insert("b", 1)
        # Both have frequency 1; the earlier insert is the victim.
        assert policy.victim() == "a"

    def test_stale_heap_entries_skipped_after_remove(self):
        policy = LFUPolicy()
        for key in "abc":
            policy.on_insert(key, 1)
        policy.on_remove("a")
        assert policy.victim() == "b"

    def test_victim_on_empty_raises(self):
        with pytest.raises(KeyError):
            LFUPolicy().victim()

    def test_readmitted_key_does_not_inherit_its_old_entry(self):
        # "a" leaves as the victim and is fetched again before the next
        # eviction.  Matching heap entries on use count alone revived
        # its old (1, seq) entry, so "a" was its own next victim.
        policy = LFUPolicy()
        policy.on_insert("a", 1)
        policy.on_insert("b", 1)
        assert policy.victim() == "a"
        policy.on_remove("a")
        policy.on_insert("a", 1)
        assert policy.victim() == "b"


@pytest.mark.parametrize("cls", [LFUPolicy, GDSFPolicy])
def test_heap_stays_bounded_under_hits(cls):
    """A hit re-ranks its key and pushes a heap entry; the heap is
    rebuilt from the live keys before stale entries pile up (100 keys
    and 100,000 hits used to leave 100,100 entries)."""
    policy = cls()
    keys = [f"k{i}" for i in range(100)]
    for key in keys:
        policy.on_insert(key, 1000)
    for i in range(100_000):
        policy.on_access(keys[(i * 7) % 100])
        assert len(policy._heap) <= 2 * len(policy) + _HEAP_FLOOR
    assert len(policy) == 100
    drained = []
    while len(policy):
        drained.append(policy.victim())
        policy.on_remove(drained[-1])
    assert sorted(drained) == sorted(keys)


class TestSize:
    def test_evicts_largest(self):
        policy = SizePolicy()
        policy.on_insert("small", 10)
        policy.on_insert("big", 10_000)
        policy.on_insert("mid", 500)
        assert policy.victim() == "big"

    def test_remove_then_victim(self):
        policy = SizePolicy()
        policy.on_insert("big", 100)
        policy.on_insert("small", 1)
        policy.on_remove("big")
        assert policy.victim() == "small"

    def test_victim_on_empty_raises(self):
        with pytest.raises(KeyError):
            SizePolicy().victim()


class TestGDSF:
    def test_prefers_small_popular_documents(self):
        policy = GDSFPolicy()
        policy.on_insert("big-unpopular", 100_000)
        policy.on_insert("small-popular", 100)
        for _ in range(5):
            policy.on_access("small-popular")
        assert policy.victim() == "big-unpopular"

    def test_inflation_eventually_evicts_former_favourites(self):
        # A once-popular document must not be immortal: the inflation
        # term L rises with every eviction until it passes the old
        # favourite's fixed priority.
        policy = GDSFPolicy()
        policy.on_insert("old-star", 1000)
        for _ in range(3):
            policy.on_access("old-star")
        evicted = []
        for i in range(60):
            policy.on_insert(f"filler{i}", 1000)
            victim = policy.victim()
            policy.on_remove(victim)
            evicted.append(victim)
        assert "old-star" in evicted

    def test_victim_is_always_tracked(self):
        policy = GDSFPolicy()
        for i in range(10):
            policy.on_insert(f"k{i}", (i + 1) * 10)
        for _ in range(10):
            victim = policy.victim()
            assert victim.startswith("k")
            policy.on_remove(victim)

    def test_victim_on_empty_raises(self):
        with pytest.raises(KeyError):
            GDSFPolicy().victim()


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("lru", LRUPolicy),
            ("fifo", FIFOPolicy),
            ("lfu", LFUPolicy),
            ("size", SizePolicy),
            ("gdsf", GDSFPolicy),
            ("LRU", LRUPolicy),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            make_policy("belady")
