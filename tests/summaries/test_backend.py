"""Tests for the shared summary backend (ABCs, factory, SummaryNode)."""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import pytest

from repro.core import position_cache
from repro.core.bitarray import CounterArray
from repro.core.position_cache import get_position_cache
from repro.errors import ConfigurationError
from repro.summaries import (
    PeerSummaries,
    SummaryConfig,
    SummaryNode,
    ThresholdUpdatePolicy,
    make_local_summary,
)
from repro.summaries.bloom import BloomSummary
from repro.summaries.keyset import KeySetSummary

ALL_KINDS = ("bloom", "exact-directory", "server-name")

URLS = [f"http://host{i % 7}.net/doc{i}" for i in range(40)]


def shipped_holds(shipped: PeerSummaries, url: str) -> bool:
    """Does the one shipped copy in *shipped* say it may hold *url*?"""
    return shipped.probe(shipped.key_of(url)) == 1


class TestFactory:
    @pytest.mark.parametrize(
        "kind, cls",
        [
            ("bloom", BloomSummary),
            ("exact-directory", KeySetSummary),
            ("server-name", KeySetSummary),
        ],
    )
    def test_kind_selects_class(self, kind, cls):
        summary = make_local_summary(
            SummaryConfig(kind=kind), 1024 * 1024
        )
        assert isinstance(summary, cls)
        assert summary.kind == kind

    def test_unknown_kind_rejected_at_config(self):
        with pytest.raises(ConfigurationError):
            SummaryConfig(kind="merkle")

    def test_labels(self):
        assert SummaryConfig(kind="bloom", load_factor=16).label() == (
            "bloom-16"
        )
        assert SummaryConfig(kind="server-name").label() == "server-name"


class TestSummaryNode:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shipped_copy_lags_until_publish(self, kind):
        node = SummaryNode(SummaryConfig(kind=kind), 1024 * 1024)
        shipped = PeerSummaries.of([node.local])
        for url in URLS:
            node.on_insert(url)
        # The live summary sees everything; the shipped copy nothing.
        assert all(node.local.may_contain(u) for u in URLS)
        assert not any(shipped_holds(shipped, u) for u in URLS)
        shipped.apply_delta(0, node.publish(now=1.0))
        assert all(shipped_holds(shipped, u) for u in URLS)
        assert node.new_since_update == 0
        assert node.last_update_time == 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_evictions_propagate_through_delta(self, kind):
        node = SummaryNode(SummaryConfig(kind=kind), 1024 * 1024)
        shipped = PeerSummaries.of([node.local])
        for url in URLS:
            node.on_insert(url)
        shipped.apply_delta(0, node.publish(now=1.0))
        victim = URLS[0]  # host0 URLs: doc0, doc7, ... share the server
        node.on_evict(victim)
        shipped.apply_delta(0, node.publish(now=2.0))
        if kind == "server-name":
            # Other docs on host0 remain: the name must survive.
            assert shipped_holds(shipped, victim)
        elif kind == "exact-directory":
            assert not shipped_holds(shipped, victim)
        # (Bloom may keep answering True: false positives are allowed.)
        survivors = [u for u in URLS[1:]]
        assert all(shipped_holds(shipped, u) for u in survivors)

    def test_due_for_update_consults_policy(self):
        node = SummaryNode(SummaryConfig(kind="bloom"), 1024 * 1024)
        policy = ThresholdUpdatePolicy(0.10)
        for url in URLS[:5]:
            node.on_insert(url)
        assert not node.due_for_update(policy, now=0.0, cached_documents=100)
        assert node.due_for_update(policy, now=0.0, cached_documents=50)

    def test_publish_hands_the_delta_to_the_caller(self):
        # The node keeps no shipped copy: delivery is the caller's job.
        node = SummaryNode(SummaryConfig(kind="bloom"), 1024 * 1024)
        node.on_insert(URLS[0])
        delta = node.publish(now=1.0)
        assert not delta.is_empty()
        assert node.local.pending_change_count() == 0
        assert node.publish(now=2.0).is_empty()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rebuild_resets_bookkeeping(self, kind):
        node = SummaryNode(SummaryConfig(kind=kind), 64 * 1024)
        for url in URLS:
            node.on_insert(url)
        live = URLS[:10]
        node.rebuild(live, now=5.0)
        assert node.new_since_update == 0
        assert node.last_update_time == 5.0
        assert all(node.local.may_contain(u) for u in live)
        # Peers resync wholesale: a fresh export holds the directory.
        resynced = PeerSummaries.of([node.local])
        assert all(shipped_holds(resynced, u) for u in live)

    def test_bloom_rebuild_doubles_bits(self):
        node = SummaryNode(SummaryConfig(kind="bloom"), 64 * 1024)
        before = node.local.num_bits
        node.rebuild(URLS, now=0.0)
        assert node.local.num_bits == before * 2
        # Rebuild discards pending flips: peers resync via digest.
        assert node.local.pending_change_count() == 0

    def test_bloom_overloaded_thresholds(self):
        node = SummaryNode(
            SummaryConfig(kind="bloom", load_factor=8), 64 * 1024
        )
        expected = node.local.num_bits // 8
        assert not node.local.overloaded(expected * 2, 2.0)
        assert node.local.overloaded(expected * 2 + 1, 2.0)

    @pytest.mark.parametrize("kind", ["exact-directory", "server-name"])
    def test_set_summaries_never_overloaded(self, kind):
        node = SummaryNode(SummaryConfig(kind=kind), 64 * 1024)
        assert not node.local.overloaded(10**9, 2.0)


class TestRebuildHashesNothing:
    """A resize re-slices each URL's memoized bit stream: the URL memo
    is the one place a digest lives, and a rebuild runs no MD5 while the
    URLs' lines are held -- one MD5 per URL whose line is gone."""

    URLS = [f"http://rehash{i}.example.com/obj/{i}" for i in range(40)]

    @pytest.fixture
    def md5_calls(self, monkeypatch):
        """Every ``hashlib.md5`` call the URL memo makes, from a cleared
        memo on."""
        calls = []

        def md5(data=b""):
            calls.append(data)
            return hashlib.md5(data)

        monkeypatch.setattr(
            position_cache, "hashlib", SimpleNamespace(md5=md5)
        )
        get_position_cache().clear()
        return calls

    @pytest.mark.parametrize("kind", ["bloom", "exact-directory"])
    def test_rebuild_runs_no_md5(self, kind, md5_calls):
        node = SummaryNode(SummaryConfig(kind=kind), 64 * 1024)
        for url in self.URLS:
            node.on_insert(url)
        assert len(md5_calls) == len(self.URLS)  # one per insert
        node.rebuild(self.URLS, now=1.0)
        assert len(md5_calls) == len(self.URLS)
        assert all(node.local.may_contain(url) for url in self.URLS)

    def test_rebuild_hashes_each_url_whose_line_is_gone(self, md5_calls):
        node = SummaryNode(SummaryConfig(kind="bloom"), 64 * 1024)
        for url in self.URLS:
            node.on_insert(url)
        get_position_cache().clear()
        node.rebuild(self.URLS, now=1.0)
        assert len(md5_calls) == 2 * len(self.URLS)
        assert all(node.local.may_contain(url) for url in self.URLS)

    def test_rebuild_equals_fresh_hashing(self):
        summary = BloomSummary(128, SummaryConfig(kind="bloom"))
        for url in self.URLS:
            summary.add_key(summary.key_of(url))
        summary.rebuild(self.URLS)
        get_position_cache().clear()
        fresh = CounterArray(
            summary.num_bits, width=summary.config.counter_width
        )
        for url in self.URLS:
            fresh.add_at(summary.hash_family.hashes(url, summary.num_bits))
        assert summary.counters.bits == fresh.bits
        assert summary.counters.to_bytes() == fresh.to_bytes()
