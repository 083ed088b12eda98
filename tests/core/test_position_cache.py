"""Tests for the shared hash-position cache (repro.core.position_cache)."""

from __future__ import annotations

import hashlib

import pytest

from repro.core.hashing import MD5HashFamily, md5_digest
from repro.core.position_cache import (
    HashPositionCache,
    get_position_cache,
    md5_stream,
    positions_from_stream,
)
from repro.errors import ConfigurationError, KeyTypeError

URL = "http://www.example.com/a/b/c.html"


class TestDigestMemoization:
    def test_digest_matches_hashlib(self):
        cache = HashPositionCache()
        assert cache.digest(URL) == hashlib.md5(URL.encode()).digest()

    def test_digest_interned(self):
        cache = HashPositionCache()
        first = cache.digest(URL)
        assert cache.digest(URL) is first

    def test_bytes_and_str_keys_both_work(self):
        cache = HashPositionCache()
        assert cache.digest(URL) == cache.digest(URL.encode())

    def test_hit_miss_counters(self):
        cache = HashPositionCache()
        cache.digest(URL)
        cache.digest(URL)
        cache.digest(URL)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_rejects_bad_key_type(self):
        cache = HashPositionCache()
        with pytest.raises(KeyTypeError):
            cache.digest(1234)  # type: ignore[arg-type]


def reference(key: str, num: int, bits: int, size: int):
    """Section VI-A's positions, computed with no memo."""
    stream = md5_stream(key.encode(), num * bits)
    return positions_from_stream(stream, num, bits, size)


class TestGeometryKeying:
    def test_positions_match_uncached_family(self):
        """Wire-spec compatibility: cached positions == Section VI-A math."""
        family = MD5HashFamily(num_functions=4, function_bits=32)
        assert family.hashes(URL, 12_345) == reference(URL, 4, 32, 12_345)
        cache = HashPositionCache()
        assert cache.positions(URL, 4, 32, 12_345) == reference(
            URL, 4, 32, 12_345
        )

    def test_distinct_geometries_distinct_entries(self):
        cache = HashPositionCache()
        a = cache.positions(URL, 4, 32, 1_000)
        b = cache.positions(URL, 4, 32, 2_000)
        c = cache.positions(URL, 2, 32, 1_000)
        assert a != b  # different table size -> different modulus
        assert len(c) == 2
        # Three geometries, one key: one line, three position tuples.
        assert len(cache) == 1
        assert cache.stats()["misses"] == 3

    def test_repeat_geometry_is_a_hit(self):
        cache = HashPositionCache()
        first = cache.positions(URL, 4, 32, 1_000)
        assert cache.positions(URL, 4, 32, 1_000) is first
        assert cache.stats()["hits"] == 1

    def test_wide_family_matches_uncached(self):
        """Families needing > 128 stream bits use the extension rule."""
        family = MD5HashFamily(num_functions=4, function_bits=50)
        assert family.hashes(URL, 99_991) == reference(URL, 4, 50, 99_991)
        cache = HashPositionCache()
        assert cache.positions(URL, 4, 50, 99_991) == reference(
            URL, 4, 50, 99_991
        )

    def test_positions_derived_from_stored_digest(self):
        """A <=128-bit geometry reuses the stored digest, bit for bit."""
        cache = HashPositionCache()
        digest = cache.digest(URL)
        stream = int.from_bytes(digest, "big")
        assert cache.positions(URL, 4, 32, 7_919) == positions_from_stream(
            stream, 4, 32, 7_919
        )


class TestLruBound:
    def test_eviction_at_capacity(self):
        cache = HashPositionCache(max_entries=2)
        cache.digest("a")
        cache.digest("b")
        cache.digest("c")
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_evicts_least_recently_used(self):
        cache = HashPositionCache(max_entries=2)
        cache.digest("a")
        cache.digest("b")
        cache.digest("a")  # refresh "a"; "b" is now LRU
        cache.digest("c")  # evicts "b"
        misses = cache.stats()["misses"]
        cache.digest("a")  # still cached
        assert cache.stats()["misses"] == misses
        cache.digest("b")  # evicted -> recomputed
        assert cache.stats()["misses"] == misses + 1

    def test_digest_and_positions_age_out_together(self):
        cache = HashPositionCache(max_entries=1)
        cache.positions("a", 4, 32, 1_000)
        cache.digest("b")
        assert len(cache) == 1
        misses = cache.stats()["misses"]
        cache.positions("a", 4, 32, 1_000)
        assert cache.stats()["misses"] == misses + 1

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ConfigurationError):
            HashPositionCache(max_entries=0)

    def test_clear_preserves_counters(self):
        cache = HashPositionCache()
        cache.digest(URL)
        cache.digest(URL)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 1


class TestProcessDefault:
    def test_default_installed_at_import(self):
        memo = get_position_cache()
        assert isinstance(memo, HashPositionCache)
        lookups = memo.hits + memo.misses
        assert md5_digest(URL) is md5_digest(URL)
        assert memo.hits + memo.misses == lookups + 2

    def test_md5_digest_identical_with_and_without_cache(self):
        assert md5_digest(URL) == hashlib.md5(URL.encode()).digest()

    def test_family_hashes_identical_with_and_without_cache(self):
        family = MD5HashFamily()
        assert family.hashes(URL, 50_021) == reference(URL, 4, 32, 50_021)


class TestStreamPrimitives:
    def test_md5_stream_first_block_is_digest(self):
        data = URL.encode()
        stream = md5_stream(data, 128)
        assert stream == int.from_bytes(hashlib.md5(data).digest(), "big")

    def test_md5_stream_extension_rule(self):
        """Bits beyond 128 come from MD5(data*2), per Section VI-A."""
        data = URL.encode()
        stream = md5_stream(data, 256)
        low = int.from_bytes(hashlib.md5(data).digest(), "big")
        high = int.from_bytes(hashlib.md5(data * 2).digest(), "big")
        assert stream == low | (high << 128)

    def test_positions_from_stream_slices_in_order(self):
        stream = int.from_bytes(bytes(range(1, 17)), "big")
        mask = (1 << 32) - 1
        expected = tuple(
            ((stream >> (i * 32)) & mask) % 1_000_003 for i in range(4)
        )
        assert positions_from_stream(stream, 4, 32, 1_000_003) == expected
