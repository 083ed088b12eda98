"""Regression tests for the SC005 exception migration.

Library code raises only the :mod:`repro.errors` hierarchy (enforced by
lint rule SC005).  Where a builtin type is the natural contract, the
domain class also subclasses it, so each case here asserts *both*
vocabularies: callers written against ``ReproError`` and callers written
against the builtin keep working.
"""

from __future__ import annotations

import pytest

from repro.cache.policies import LRUPolicy
from repro.core.bitarray import BitArray, CounterArray
from repro.core.hashing import MD5HashFamily
from repro.errors import (
    BitIndexError,
    CacheStateError,
    ConfigurationError,
    KeyTypeError,
    ReproError,
    SummaryStateError,
)
from repro.obs.spans import SpanRing
from repro.summaries.bloom import BloomSummary
from repro.summaries.keyset import KeySetSummary


class TestDualInheritance:
    def test_bit_index_error_is_index_error(self):
        assert issubclass(BitIndexError, IndexError)
        assert issubclass(BitIndexError, ReproError)

    def test_key_type_error_is_type_error(self):
        assert issubclass(KeyTypeError, TypeError)
        assert issubclass(KeyTypeError, ReproError)

    def test_summary_state_error_is_value_error(self):
        assert issubclass(SummaryStateError, ValueError)
        assert issubclass(SummaryStateError, ReproError)

    def test_cache_state_error_is_key_error(self):
        assert issubclass(CacheStateError, KeyError)
        assert issubclass(CacheStateError, ReproError)

    def test_configuration_error_is_value_error(self):
        assert issubclass(ConfigurationError, ValueError)
        assert issubclass(ConfigurationError, ReproError)


class TestRaiseSites:
    def test_bitarray_out_of_range_get(self):
        bits = BitArray(8)
        with pytest.raises(BitIndexError):
            bits.get(8)
        with pytest.raises(IndexError):  # old-vocabulary callers
            bits.get(8)

    def test_bitarray_set_many_out_of_range(self):
        bits = BitArray(8)
        with pytest.raises(BitIndexError):
            bits.set_many([0, 99])

    def test_counter_array_out_of_range(self):
        counters = CounterArray(4)
        with pytest.raises(BitIndexError):
            counters.get(4)

    def test_counter_underflow(self):
        counters = CounterArray(4)
        with pytest.raises(SummaryStateError):
            counters.remove_at([0])
        with pytest.raises(ValueError):  # old-vocabulary callers
            counters.remove_at([0])

    def test_counting_bloom_remove_never_added(self):
        cbf = BloomSummary(8)
        cbf.add("present")
        with pytest.raises(SummaryStateError):
            cbf.remove("absent")

    def test_exact_summary_remove_unknown_url(self):
        summary = KeySetSummary("exact-directory")
        with pytest.raises(SummaryStateError):
            summary.remove("http://never.added/doc")

    def test_servername_summary_remove_unknown_server(self):
        summary = KeySetSummary("server-name")
        with pytest.raises(SummaryStateError):
            summary.remove("http://never.added/doc")

    def test_policy_victim_on_empty_cache(self):
        policy = LRUPolicy()
        with pytest.raises(CacheStateError):
            policy.victim()
        with pytest.raises(KeyError):  # old-vocabulary callers
            policy.victim()

    def test_hashing_rejects_non_string_key(self):
        family = MD5HashFamily()
        with pytest.raises(KeyTypeError):
            family.hashes(1234, 64)  # type: ignore[arg-type]
        with pytest.raises(TypeError):  # old-vocabulary callers
            family.hashes(1234, 64)  # type: ignore[arg-type]

    def test_span_ring_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            SpanRing(capacity=0)
        with pytest.raises(ValueError):  # old-vocabulary callers
            SpanRing(capacity=0)

    def test_all_cases_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            BitArray(8).get(99)
        with pytest.raises(ReproError):
            CounterArray(4).remove_at([0])
        with pytest.raises(ReproError):
            LRUPolicy().victim()
