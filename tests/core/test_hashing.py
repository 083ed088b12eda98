"""Tests for the MD5-slice and polynomial hash families."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (
    MAX_NUM_FUNCTIONS,
    MD5HashFamily,
    PolynomialHashFamily,
    md5_digest,
)
from repro.errors import ConfigurationError


class TestMd5Digest:
    def test_matches_hashlib(self):
        url = "http://example.com/index.html"
        assert md5_digest(url) == hashlib.md5(url.encode()).digest()

    def test_accepts_bytes(self):
        assert md5_digest(b"abc") == hashlib.md5(b"abc").digest()

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            md5_digest(42)  # type: ignore[arg-type]


class TestMD5HashFamily:
    def test_default_spec_matches_paper(self):
        family = MD5HashFamily()
        assert family.spec() == (4, 32)

    def test_hashes_are_deterministic(self):
        family = MD5HashFamily()
        url = "http://example.com/a"
        assert family.hashes(url, 1000) == family.hashes(url, 1000)

    def test_hash_count_and_range(self):
        family = MD5HashFamily(num_functions=6, function_bits=16)
        positions = family.hashes("http://x.com/y", 977)
        assert len(positions) == 6
        assert all(0 <= p < 977 for p in positions)

    def test_slices_come_from_md5_of_key(self):
        # With 32-bit slices and a table of 2**32, the positions are the
        # raw little-position slices of the MD5 digest stream.
        family = MD5HashFamily(num_functions=4, function_bits=32)
        url = "http://example.com/"
        digest = int.from_bytes(hashlib.md5(url.encode()).digest(), "big")
        expected = tuple(
            (digest >> (32 * i)) & 0xFFFFFFFF for i in range(4)
        )
        assert family.hashes(url, 1 << 32) == expected

    def test_more_than_128_bits_uses_concatenated_url(self):
        # 8 functions x 32 bits = 256 bits: the second 128 bits must come
        # from MD5(url + url), per Section VI-A.
        family = MD5HashFamily(num_functions=8, function_bits=32)
        url = "http://example.com/"
        first = int.from_bytes(hashlib.md5(url.encode()).digest(), "big")
        second = int.from_bytes(
            hashlib.md5((url + url).encode()).digest(), "big"
        )
        stream = first | (second << 128)
        expected = tuple(
            (stream >> (32 * i)) & 0xFFFFFFFF for i in range(8)
        )
        assert family.hashes(url, 1 << 32) == expected

    def test_spec_roundtrip(self):
        family = MD5HashFamily(num_functions=7, function_bits=24)
        clone = MD5HashFamily.from_spec(*family.spec())
        assert clone == family
        assert hash(clone) == hash(family)

    def test_equality_with_other_types(self):
        assert MD5HashFamily() != object()

    @pytest.mark.parametrize("bad", [0, -1, MAX_NUM_FUNCTIONS + 1, 0xFFFF])
    def test_rejects_bad_num_functions(self, bad):
        with pytest.raises(ConfigurationError):
            MD5HashFamily(num_functions=bad)

    @pytest.mark.parametrize("bad", [0, 65])
    def test_rejects_bad_function_bits(self, bad):
        with pytest.raises(ConfigurationError):
            MD5HashFamily(function_bits=bad)

    def test_rejects_bad_table_size(self):
        with pytest.raises(ConfigurationError):
            MD5HashFamily().hashes("x", 0)

    def test_distribution_is_roughly_uniform(self):
        # 4000 keys x 4 positions over 64 buckets: each bucket expects
        # 250 hits; all buckets should land within a generous band.
        family = MD5HashFamily()
        counts = Counter()
        for i in range(4000):
            for p in family.hashes(f"http://s{i}.com/d{i}", 64):
                counts[p] += 1
        assert len(counts) == 64
        assert min(counts.values()) > 150
        assert max(counts.values()) < 370

    @given(st.text(min_size=1, max_size=100), st.integers(1, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_positions_always_in_range(self, key, table_size):
        positions = MD5HashFamily().hashes(key, table_size)
        assert all(0 <= p < table_size for p in positions)


class TestPolynomialHashFamily:
    def test_deterministic_and_in_range(self):
        family = PolynomialHashFamily()
        p1 = family.hashes("http://a.com/b", 509)
        p2 = family.hashes("http://a.com/b", 509)
        assert p1 == p2
        assert all(0 <= p < 509 for p in p1)

    def test_num_functions(self):
        assert len(PolynomialHashFamily(6).hashes("x", 100)) == 6

    def test_distinct_keys_rarely_collide_fully(self):
        family = PolynomialHashFamily()
        seen = set()
        for i in range(2000):
            seen.add(family.hashes(f"key-{i}", 1 << 30))
        assert len(seen) == 2000

    def test_rejects_too_many_functions(self):
        with pytest.raises(ConfigurationError):
            PolynomialHashFamily(99)

    def test_rejects_bad_table_size(self):
        with pytest.raises(ConfigurationError):
            PolynomialHashFamily().hashes("x", -1)

    def test_empty_vs_nul_key_differ(self):
        family = PolynomialHashFamily()
        assert family.hashes("", 1 << 20) != family.hashes("\x00", 1 << 20)
