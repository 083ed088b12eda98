"""PeerSummaries against the per-peer RemoteSummary copies it replaced.

The reference is the old answer: one ``RemoteSummary`` per node (what
``export()`` returns, patched with each published delta) asked
``may_contain`` one peer at a time.  ``PeerSummaries.probe`` must name
exactly the peers that reference names, for every representation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BitIndexError, ConfigurationError, SummaryMismatchError
from repro.summaries import (
    BitFlipDelta,
    DigestDelta,
    PeerSummaries,
    SummaryConfig,
    SummaryNode,
    slots_of,
)

ALL_KINDS = ("bloom", "exact-directory", "server-name")

#: Few servers and a small Bloom filter (64 bits at this capacity), so
#: names alias and bits collide and "maybe" answers differ between peers.
URLS = [f"http://host{i % 5}.org/doc{i}" for i in range(24)]
CAPACITY = 64 * 1024


def make_nodes(kind, count, capacities=None):
    config = SummaryConfig(kind=kind, load_factor=8)
    return [
        SummaryNode(config, (capacities or [CAPACITY] * count)[slot])
        for slot in range(count)
    ]


def reference_mask(remotes, url):
    mask = 0
    for slot, remote in enumerate(remotes):
        if remote.may_contain(url):
            mask |= 1 << slot
    return mask


def assert_agrees(shipped, remotes):
    for url in URLS:
        assert shipped.probe(shipped.key_of(url)) == reference_mask(
            remotes, url
        ), url


#: One step of a run: (node, url index, what happens).
steps = st.lists(
    st.tuples(
        st.integers(0, 99),
        st.integers(0, len(URLS) - 1),
        st.sampled_from(["insert", "evict", "publish", "publish-twice", "empty"]),
    ),
    max_size=120,
)


class TestAgainstPerPeerCopies:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("count", [1, 3, 70])  # 70: masks past 64 bits
    @given(steps)
    @settings(max_examples=25, deadline=None)
    def test_probe_equals_may_contain_of_every_copy(self, kind, count, ops):
        nodes = make_nodes(kind, count)
        held = [set() for _ in nodes]
        shipped = PeerSummaries.of([node.local for node in nodes])
        remotes = [node.local.export() for node in nodes]

        def publish(slot, times=1):
            delta = nodes[slot].publish(now=0.0)
            for _ in range(times):
                # Absolute records: a delta delivered twice is harmless.
                shipped.apply_delta(slot, delta)
                remotes[slot].apply_delta(delta)

        for pick, index, action in ops:
            slot = pick % count
            url = URLS[index]
            if action == "insert" and url not in held[slot]:
                nodes[slot].on_insert(url)
                held[slot].add(url)
            elif action == "evict" and url in held[slot]:
                nodes[slot].on_evict(url)
                held[slot].discard(url)
            elif action == "publish":
                publish(slot)
            elif action == "publish-twice":
                publish(slot, times=2)
            elif action == "empty":
                # The slot goes back to empty: every document leaves
                # and the change is published.
                for gone in sorted(held[slot]):
                    nodes[slot].on_evict(gone)
                held[slot].clear()
                publish(slot)
                assert not any(
                    shipped.probe(shipped.key_of(u)) >> slot & 1 for u in URLS
                )
            assert_agrees(shipped, remotes)

        for slot in range(count):
            publish(slot)
        assert_agrees(shipped, remotes)
        # Fully published, no copy is stale: no false negatives.
        for slot, urls in enumerate(held):
            for url in urls:
                assert shipped.probe(shipped.key_of(url)) >> slot & 1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_starts_from_what_each_summary_exports(self, kind):
        nodes = make_nodes(kind, 4)
        for slot, node in enumerate(nodes):
            for url in URLS[slot::3]:
                node.on_insert(url)
        shipped = PeerSummaries.of([node.local for node in nodes])
        assert_agrees(shipped, [node.local.export() for node in nodes])

    @given(steps)
    @settings(max_examples=25, deadline=None)
    def test_bloom_filters_of_different_sizes(self, ops):
        # Capacities differ, so geometries do: one URL has different
        # positions at different peers, and one key must carry them all.
        capacities = [64 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 16 * 1024]
        nodes = make_nodes("bloom", 5, capacities)
        assert len({node.local.num_bits for node in nodes}) == 3
        shipped = PeerSummaries.of([node.local for node in nodes])
        remotes = [node.local.export() for node in nodes]
        held = [set() for _ in nodes]
        for pick, index, action in ops:
            slot = pick % 5
            url = URLS[index]
            if action == "evict" and url in held[slot]:
                nodes[slot].on_evict(url)
                held[slot].discard(url)
            elif action != "evict" and url not in held[slot]:
                nodes[slot].on_insert(url)
                held[slot].add(url)
            if action.startswith("publish"):
                delta = nodes[slot].publish(now=0.0)
                shipped.apply_delta(slot, delta)
                remotes[slot].apply_delta(delta)
            assert_agrees(shipped, remotes)


class TestEdges:
    def test_slots_of_reads_a_mask_in_ascending_order(self):
        assert slots_of(0) == []
        assert slots_of(0b1011) == [0, 1, 3]
        assert slots_of(1 << 99 | 1 << 64 | 1) == [0, 64, 99]

    def test_rejects_no_summaries_and_mixed_representations(self):
        with pytest.raises(ConfigurationError):
            PeerSummaries.of([])
        mixed = [make_nodes(kind, 1)[0].local for kind in ALL_KINDS[:2]]
        with pytest.raises(ConfigurationError):
            PeerSummaries.of(mixed)

    def test_rejects_a_delta_of_the_other_representation(self):
        bloom = PeerSummaries.of([n.local for n in make_nodes("bloom", 2)])
        with pytest.raises(SummaryMismatchError):
            bloom.apply_delta(0, DigestDelta(added=[b"x" * 16]))
        exact = PeerSummaries.of(
            [n.local for n in make_nodes("exact-directory", 2)]
        )
        with pytest.raises(SummaryMismatchError):
            exact.apply_delta(0, BitFlipDelta(flips=[(1, True)]))

    def test_bloom_flip_outside_the_slots_filter_is_rejected(self):
        # The second filter is smaller: an index valid for the first
        # must not reach into the columns of another geometry.
        nodes = make_nodes("bloom", 2, [64 * 1024, 16 * 1024])
        small = nodes[1].local.num_bits
        shipped = PeerSummaries.of([node.local for node in nodes])
        with pytest.raises(BitIndexError):
            shipped.apply_delta(1, BitFlipDelta(flips=[(small, True)]))
        assert all(shipped.probe(shipped.key_of(u)) == 0 for u in URLS)
