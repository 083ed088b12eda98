"""Tests for the plain Bloom filter."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bfmath import false_positive_probability
from repro.core.bloom import BloomFilter
from repro.core.hashing import MD5HashFamily
from repro.errors import ConfigurationError


class TestBloomFilterBasics:
    def test_empty_filter_contains_nothing(self):
        filt = BloomFilter(1024)
        assert not filt.may_contain("http://example.com/a")

    def test_no_false_negatives(self):
        filt = BloomFilter.for_capacity(500, load_factor=8)
        urls = [f"http://s{i}.com/doc{i}" for i in range(500)]
        for url in urls:
            filt.add(url)
        assert all(filt.may_contain(url) for url in urls)

    def test_contains_operator(self):
        filt = BloomFilter(256)
        filt.add("http://a.com/x")
        assert "http://a.com/x" in filt

    def test_add_returns_flipped_bits(self):
        filt = BloomFilter(1 << 20)
        flipped = filt.add("http://a.com/x")
        assert set(flipped) == set(filt.positions("http://a.com/x"))
        # Adding again flips nothing.
        assert filt.add("http://a.com/x") == []

    def test_for_capacity_sizing(self):
        filt = BloomFilter.for_capacity(1000, load_factor=16)
        assert filt.num_bits == 16_000
        assert filt.size_bytes() == 2000

    @pytest.mark.parametrize("bad_args", [(0, 8), (10, 0)])
    def test_for_capacity_validation(self, bad_args):
        with pytest.raises(ConfigurationError):
            BloomFilter.for_capacity(*bad_args)

    def test_rejects_zero_bits(self):
        with pytest.raises(ConfigurationError):
            BloomFilter(0)

    def test_false_positive_rate_near_analytic(self):
        # Load factor 10 with 4 hashes: the paper's example gives 1.2%.
        n = 2000
        filt = BloomFilter(10 * n)
        for i in range(n):
            filt.add(f"http://s{i}.com/present{i}")
        trials = 4000
        false_positives = sum(
            filt.may_contain(f"http://other{i}.org/absent{i}")
            for i in range(trials)
        )
        expected = false_positive_probability(10, 4)
        assert false_positives / trials == pytest.approx(
            expected, abs=0.01
        )

    def test_expected_false_positive_rate_tracks_fill(self):
        filt = BloomFilter(1000)
        assert filt.expected_false_positive_rate() == 0.0
        for i in range(100):
            filt.add(f"u{i}")
        rate = filt.expected_false_positive_rate()
        assert 0.0 < rate < 1.0
        assert rate == pytest.approx(filt.fill_ratio() ** 4)


class TestBloomFilterUpdatesAndSerialization:
    def test_apply_flips_is_idempotent(self):
        filt = BloomFilter(128)
        flips = [(3, True), (77, True), (3, True)]
        assert filt.apply_flips(flips) == 2
        assert filt.apply_flips(flips) == 0

    def test_apply_flips_last_record_wins(self):
        # Absolute records: a (hostile) delta repeating an index leaves
        # the bit at the last value listed, whichever order they come in.
        filt = BloomFilter(128)
        assert filt.apply_flips([(9, True), (9, False), (4, False), (4, True)]) == 3
        assert not filt.bits.get(9)
        assert filt.bits.get(4)
        assert filt.bits.popcount == 1

    def test_apply_flips_bad_index_keeps_popcount_true(self):
        filt = BloomFilter(16)
        with pytest.raises(IndexError):
            filt.apply_flips([(3, True), (16, True)])
        assert filt.bits.popcount == sum(1 for _ in filt.bits.iter_set_bits())

    def test_set_bit(self):
        # One absolute record goes straight to the filter's public bits.
        filt = BloomFilter(64)
        assert filt.bits.set(5, True) is True
        assert filt.bits.set(5, True) is False
        assert filt.bits.set(5, False) is True

    def test_reset(self):
        filt = BloomFilter(64)
        filt.add("http://a.com/x")
        filt.reset()
        assert not filt.may_contain("http://a.com/x")
        assert filt.fill_ratio() == 0.0

    def test_bytes_roundtrip_preserves_membership(self):
        family = MD5HashFamily(num_functions=5)
        filt = BloomFilter(2048, hash_family=family)
        urls = [f"http://x{i}.com/p" for i in range(100)]
        for url in urls:
            filt.add(url)
        clone = BloomFilter.from_bytes(
            2048, filt.to_bytes(), hash_family=family
        )
        assert clone == filt
        assert all(clone.may_contain(u) for u in urls)

    def test_copy_is_independent(self):
        filt = BloomFilter(128)
        clone = filt.copy()
        clone.add("http://a.com/x")
        assert not filt.may_contain("http://a.com/x")

    def test_equality_requires_same_family(self):
        a = BloomFilter(128, hash_family=MD5HashFamily(4))
        b = BloomFilter(128, hash_family=MD5HashFamily(5))
        assert a != b
        assert a != object()

    @given(st.sets(st.text(min_size=1, max_size=30), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_membership_superset_property(self, keys):
        """A Bloom filter may over-approximate but never under-approximate."""
        filt = BloomFilter(4096)
        for key in keys:
            filt.add(key)
        assert all(filt.may_contain(k) for k in keys)

    @given(st.sets(st.text(min_size=1, max_size=30), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_serialization_roundtrip_property(self, keys):
        filt = BloomFilter(2048)
        for key in keys:
            filt.add(key)
        clone = BloomFilter.from_bytes(2048, filt.to_bytes())
        assert clone == filt


class TestBatchOperations:
    def test_add_many_equals_repeated_add(self):
        urls = [f"http://batch{i}.com/p" for i in range(50)]
        one_by_one = BloomFilter(2048)
        for url in urls:
            one_by_one.add(url)
        batched = BloomFilter(2048)
        batched.add_many(urls)
        assert batched == one_by_one
