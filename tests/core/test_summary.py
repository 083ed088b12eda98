"""Tests for the three summary representations of Section V."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bfmath import optimal_integer_num_hashes
from repro.core.hashing import MAX_NUM_FUNCTIONS
from repro.summaries import (
    AVERAGE_DOCUMENT_SIZE,
    BloomSummary,
    PeerSummaries,
    SummaryConfig,
    expected_documents_for_cache,
    make_local_summary,
)
from repro.summaries.keyset import KeySetSummary
from repro.errors import ConfigurationError

URLS = [f"http://server{i // 3}.com/doc{i}" for i in range(30)]


def holds(copies, url):
    """Does slot 0 of *copies* say *url* may be present?"""
    return bool(copies.probe(copies.key_of(url)) & 1)


def make_all_summaries():
    return [
        KeySetSummary("exact-directory"),
        KeySetSummary("server-name"),
        BloomSummary(100, SummaryConfig(kind="bloom", load_factor=16)),
    ]


class TestSummaryConfig:
    def test_defaults_are_the_papers(self):
        cfg = SummaryConfig()
        assert cfg.kind == "bloom"
        assert cfg.num_hashes == 4
        assert cfg.counter_width == 4

    def test_labels(self):
        assert SummaryConfig(kind="bloom", load_factor=8).label() == "bloom-8"
        assert SummaryConfig(kind="server-name").label() == "server-name"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            SummaryConfig(kind="magic")

    def test_rejects_bad_load_factor(self):
        with pytest.raises(ConfigurationError):
            SummaryConfig(load_factor=0)

    def test_rejects_bad_num_hashes(self):
        with pytest.raises(ConfigurationError):
            SummaryConfig(num_hashes=0)

    def test_num_hashes_capped_by_the_family_limit(self):
        # The optimal k at the paper's largest load factor fits.
        SummaryConfig(num_hashes=optimal_integer_num_hashes(32))
        SummaryConfig(num_hashes=MAX_NUM_FUNCTIONS)
        with pytest.raises(ConfigurationError):
            SummaryConfig(num_hashes=MAX_NUM_FUNCTIONS + 1)


class TestCommonBehaviour:
    @pytest.mark.parametrize("summary", make_all_summaries())
    def test_add_then_contains(self, summary):
        summary.add(URLS[0])
        assert summary.may_contain(URLS[0])

    @pytest.mark.parametrize("summary", make_all_summaries())
    def test_no_false_negatives(self, summary):
        for url in URLS:
            summary.add(url)
        assert all(summary.may_contain(u) for u in URLS)

    @pytest.mark.parametrize("summary", make_all_summaries())
    def test_key_of_contains_key_agrees_with_may_contain(self, summary):
        """``contains_key`` became ``PeerSummaries.probe``: the key a
        summary derives, probed against its exported copy, answers like
        ``may_contain``."""
        for url in URLS[:10]:
            summary.add(url)
        copies = PeerSummaries.of([summary])
        for url in URLS:
            held = copies.probe(summary.key_of(url))
            assert held == int(summary.may_contain(url))

    @pytest.mark.parametrize("summary", make_all_summaries())
    def test_remote_copy_converges_via_deltas(self, summary):
        remote = PeerSummaries.of([summary])
        for url in URLS[:15]:
            summary.add(url)
        remote.apply_delta(0, summary.drain_delta())
        for url in URLS[:15]:
            assert holds(remote, url)
        for url in URLS[:5]:
            summary.remove(url)
        remote.apply_delta(0, summary.drain_delta())
        for url in URLS[5:15]:
            assert holds(remote, url)

    @pytest.mark.parametrize("summary", make_all_summaries())
    def test_remove_unknown_raises(self, summary):
        with pytest.raises(ValueError):
            summary.remove("http://never.com/x")


class TestExactDirectory:
    def test_remove_clears_membership(self):
        summary = KeySetSummary("exact-directory")
        summary.add(URLS[0])
        summary.remove(URLS[0])
        assert not summary.may_contain(URLS[0])
        assert len(summary) == 0

    def test_add_remove_within_one_delta_cancels(self):
        summary = KeySetSummary("exact-directory")
        summary.add(URLS[0])
        summary.remove(URLS[0])
        delta = summary.drain_delta()
        assert delta.is_empty()

    def test_duplicate_add_is_noop(self):
        summary = KeySetSummary("exact-directory")
        summary.add(URLS[0])
        summary.add(URLS[0])
        assert len(summary) == 1
        assert summary.drain_delta().change_count == 1

    def test_sizes_are_16_bytes_per_url(self):
        summary = KeySetSummary("exact-directory")
        for url in URLS:
            summary.add(url)
        assert summary.size_bytes() == 30 * 16
        assert summary.remote_size_bytes() == 30 * 16
        assert summary.export().change_count == 30


class TestServerName:
    def test_collapses_urls_to_servers(self):
        summary = KeySetSummary("server-name")
        summary.add("http://a.com/1")
        summary.add("http://a.com/2")
        assert len(summary) == 1
        # Any URL on that server now "may be" present: the
        # representation's inherent false hits.
        assert summary.may_contain("http://a.com/unrelated")

    def test_refcounting_keeps_name_until_last_url_leaves(self):
        summary = KeySetSummary("server-name")
        summary.add("http://a.com/1")
        summary.add("http://a.com/2")
        summary.remove("http://a.com/1")
        assert summary.may_contain("http://a.com/2")
        summary.remove("http://a.com/2")
        assert not summary.may_contain("http://a.com/2")

    def test_delta_only_on_first_and_last(self):
        summary = KeySetSummary("server-name")
        summary.add("http://a.com/1")
        assert summary.drain_delta().change_count == 1
        summary.add("http://a.com/2")
        assert summary.drain_delta().change_count == 0
        summary.remove("http://a.com/1")
        assert summary.drain_delta().change_count == 0
        summary.remove("http://a.com/2")
        assert summary.drain_delta().change_count == 1

    def test_ports_are_distinct_servers(self):
        summary = KeySetSummary("server-name")
        summary.add("http://a.com:8080/1")
        assert not summary.may_contain("http://a.com/1")


class TestBloomSummary:
    def test_requires_bloom_kind(self):
        with pytest.raises(ConfigurationError):
            BloomSummary(100, SummaryConfig(kind="server-name"))

    def test_sizing_follows_load_factor(self):
        summary = BloomSummary(
            1000, SummaryConfig(kind="bloom", load_factor=8)
        )
        assert summary.num_bits == 8000
        assert summary.remote_size_bytes() == 1000
        # Local adds 4-bit counters: half a byte per bit.
        assert summary.size_bytes() == 1000 + 4000


class TestFactories:
    def test_expected_documents_default_divisor(self):
        assert expected_documents_for_cache(8 * 2**30) == 2**30 // 8192 * 8
        assert (
            expected_documents_for_cache(80 * 1024)
            == 80 * 1024 // AVERAGE_DOCUMENT_SIZE
        )

    def test_expected_documents_custom_doc_size(self):
        assert expected_documents_for_cache(100_000, doc_size=1000) == 100

    def test_expected_documents_minimum_one(self):
        assert expected_documents_for_cache(10) == 1

    def test_expected_documents_validation(self):
        with pytest.raises(ConfigurationError):
            expected_documents_for_cache(0)
        with pytest.raises(ConfigurationError):
            expected_documents_for_cache(100, doc_size=0)

    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("exact-directory", KeySetSummary),
            ("server-name", KeySetSummary),
            ("bloom", BloomSummary),
        ],
    )
    def test_make_local_summary_dispatch(self, kind, cls):
        summary = make_local_summary(
            SummaryConfig(kind=kind), 1024 * 1024
        )
        assert isinstance(summary, cls)
        assert summary.kind == kind


@given(
    st.lists(
        st.tuples(
            st.sampled_from(URLS),
            st.booleans(),
        ),
        max_size=120,
    ),
    st.sampled_from(["exact-directory", "server-name", "bloom"]),
)
@settings(max_examples=40, deadline=None)
def test_delta_sync_property(ops, kind):
    """For any op sequence and any representation, a remote copy kept in
    sync via deltas answers exactly like a fresh export."""
    summary = make_local_summary(SummaryConfig(kind=kind), 512 * 1024)
    remote = PeerSummaries.of([summary])
    live = {}
    for url, is_add in ops:
        if is_add:
            if live.get(url, 0) == 0:
                summary.add(url)
            live[url] = 1
        elif live.get(url, 0) == 1:
            summary.remove(url)
            live[url] = 0
    remote.apply_delta(0, summary.drain_delta())
    fresh = PeerSummaries.of([summary])
    for url in URLS:
        assert holds(remote, url) == holds(fresh, url)
