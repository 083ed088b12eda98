"""Tests for the shared summary backend (ABCs, factory, SummaryNode)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.summaries import (
    PeerSummaries,
    SummaryConfig,
    SummaryNode,
    ThresholdUpdatePolicy,
    make_local_summary,
)
from repro.summaries.bloom import BloomSummary
from repro.summaries.exact import ExactDirectorySummary
from repro.summaries.servername import ServerNameSummary

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
            ("exact-directory", ExactDirectorySummary),
            ("server-name", ServerNameSummary),
        ],
    )
    def test_kind_selects_class(self, kind, cls):
        summary = make_local_summary(
            SummaryConfig(kind=kind), 1024 * 1024
        )
        assert isinstance(summary, cls)

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


class TestRebuildFromStoredDigests:
    """Rebuilds fed cache-stored MD5 digests must match rebuild-by-hashing."""

    URLS = [f"http://digest{i}.example.com/obj/{i}" for i in range(40)]

    def _digests(self):
        import hashlib

        return {u: hashlib.md5(u.encode()).digest() for u in self.URLS}

    def test_bloom_rebuild_identical(self):
        hashed = BloomSummary(128, SummaryConfig(kind="bloom"))
        from_digests = BloomSummary(128, SummaryConfig(kind="bloom"))
        hashed.rebuild(self.URLS)
        from_digests.rebuild(self.URLS, digests=self._digests())
        assert (
            from_digests.counting_filter.snapshot()
            == hashed.counting_filter.snapshot()
        )

    def test_bloom_rebuild_partial_digests_fall_back_to_hashing(self):
        digests = self._digests()
        for url in self.URLS[::3]:
            del digests[url]
        hashed = BloomSummary(128, SummaryConfig(kind="bloom"))
        partial = BloomSummary(128, SummaryConfig(kind="bloom"))
        hashed.rebuild(self.URLS)
        partial.rebuild(self.URLS, digests=digests)
        assert (
            partial.counting_filter.snapshot()
            == hashed.counting_filter.snapshot()
        )

    def test_bloom_wide_family_ignores_digests(self):
        # 5 x 32 = 160 stream bits > 128: digests cannot cover the
        # geometry, so the rebuild must hash and still be correct.
        config = SummaryConfig(kind="bloom", num_hashes=5)
        hashed = BloomSummary(128, config)
        wide = BloomSummary(128, config)
        hashed.rebuild(self.URLS)
        wide.rebuild(self.URLS, digests=self._digests())
        assert (
            wide.counting_filter.snapshot()
            == hashed.counting_filter.snapshot()
        )

    def test_exact_rebuild_identical(self):
        hashed = ExactDirectorySummary()
        from_digests = ExactDirectorySummary()
        hashed.rebuild(self.URLS)
        from_digests.rebuild(self.URLS, digests=self._digests())
        assert len(from_digests) == len(hashed)
        for url in self.URLS:
            assert from_digests.may_contain(url)
        assert from_digests.export() == hashed.export()
