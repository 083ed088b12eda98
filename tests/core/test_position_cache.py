"""Tests for the shared hash-position cache (repro.core.position_cache)."""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import pytest

from repro.core.hashing import MD5HashFamily, md5_digest
from repro.core.position_cache import (
    HashPositionCache,
    get_position_cache,
    md5_stream,
    positions_from_stream,
)
from repro.errors import ConfigurationError, KeyTypeError
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_summary_sharing,
)
from repro.summaries import SummaryConfig
from repro.traces.binary import BinaryTraceReader, pack_trace

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

    def test_miss_at_a_new_geometry_refreshes_recency(self):
        """A rebuild's just-used line is the hottest, not the coldest."""
        cache = HashPositionCache(max_entries=2)
        cache.positions("a", 4, 32, 1_000)
        cache.positions("b", 4, 32, 1_000)
        cache.positions("a", 4, 32, 2_000)  # a miss on a held line
        cache.digest("c")  # evicts "b", the least recently used
        misses = cache.stats()["misses"]
        cache.digest("a")
        assert cache.stats()["misses"] == misses
        cache.digest("b")
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


class TestEvictionAcrossTables:
    def test_evicted_key_is_left_in_no_table(self):
        cache = HashPositionCache(max_entries=3)
        for key in ("a", "b", "c"):
            cache.positions(key, 4, 32, 1_000)
            cache.positions(key, 4, 32, 2_000)
            cache.positions(key, 4, 50, 99_991)  # 200 bits: a wide line
        cache.digest("d")  # evicts "a"
        assert "a" not in cache._lines
        assert all("a" not in table for table in cache._tables.values())
        assert "a" not in cache._wide
        assert set(cache._wide) == {"b", "c"}
        assert len(cache._tables) == 3

    def test_emptied_table_is_dropped(self):
        cache = HashPositionCache(max_entries=1)
        cache.positions("a", 4, 32, 1_000)
        cache.positions("b", 4, 32, 2_000)  # evicts "a", the 1,000 table's last key
        assert set(cache._tables) == {(4, 32, 2_000)}
        assert cache.positions("b", 4, 32, 2_000) == reference("b", 4, 32, 2_000)

    def test_wide_positions_survive_a_narrow_eviction(self):
        cache = HashPositionCache(max_entries=2)
        first = cache.positions("a", 4, 50, 99_991)
        cache.positions("b", 4, 32, 1_000)
        cache.positions("a", 4, 50, 88_883)  # re-sliced from the held stream
        cache.digest("c")  # evicts "b"
        assert cache.positions("a", 4, 50, 99_991) is first
        assert cache.positions("a", 4, 50, 88_883) == reference("a", 4, 50, 88_883)

    @pytest.mark.parametrize("kind", ["bloom", "exact-directory"])
    def test_replay_is_identical_under_a_tiny_memo(
        self, kind, small_trace, tmp_path, monkeypatch
    ):
        """A memo that evicts on nearly every lookup changes no counter."""
        path = str(tmp_path / "small.sctr")
        pack_trace(small_trace, path)
        config = SummarySharingConfig(summary=SummaryConfig(kind=kind))

        def replay():
            return simulate_summary_sharing(
                BinaryTraceReader(path), 4, 256 * 1024, config
            )

        full = replay()
        memo = get_position_cache()
        memo.clear()
        monkeypatch.setattr(memo, "_max_entries", 64)
        evictions = memo.evictions
        tiny = replay()
        assert len(memo) == 64
        assert memo.evictions > evictions
        assert tiny == full


URLS = [f"http://www.site{i % 977}.example.com/doc/{i}.html" for i in range(50_000)]


class TestFootprint:
    """What one line costs: a few dict entries, no object of its own."""

    @staticmethod
    def bytes_per_line(fill) -> float:
        cache = HashPositionCache()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fill(cache)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / len(URLS)

    def test_bloom_line_bytes(self):
        per_line = self.bytes_per_line(
            lambda cache: [cache.positions(url, 4, 32, 1 << 20) for url in URLS]
        )
        assert per_line <= 400

    def test_digest_line_bytes(self):
        per_line = self.bytes_per_line(
            lambda cache: [cache.digest(url) for url in URLS]
        )
        assert per_line <= 170

    def test_lines_are_not_gc_tracked(self):
        cache = HashPositionCache()
        gc.collect()
        before = len(gc.get_objects())
        for url in URLS[:10_000]:
            cache.positions(url, 4, 32, 1 << 20)
        gc.collect()
        assert len(gc.get_objects()) - before < 100


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
