"""PeerSummaries against one plain copy per slot, asked one at a time.

The reference is the per-peer answer: a ``core.bloom.BloomFilter``
patched with ``apply_flips`` for a Bloom slot, a Python ``set`` of keys
for a digest-set slot, and nothing for a slot with no copy.
``PeerSummaries.probe`` must name exactly the slots the reference
names, for every representation, through every slot lifecycle step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.core.hashing import MD5HashFamily, md5_digest
from repro.errors import BitIndexError, ConfigurationError, SummaryMismatchError
from repro.summaries import (
    BitFlipDelta,
    DigestDelta,
    PeerSummaries,
    SummaryConfig,
    SummaryNode,
    slots_of,
)
from repro.urlutil import server_of

ALL_KINDS = ("bloom", "exact-directory", "server-name")
SET_KEYS = {"exact-directory": md5_digest, "server-name": server_of}

#: Few servers and a small Bloom filter (64 bits at this capacity), so
#: names alias and bits collide and "maybe" answers differ between peers.
URLS = [f"http://host{i % 5}.org/doc{i}" for i in range(24)]
CAPACITY = 64 * 1024
#: Resizes double a Bloom filter; past this many bits they stop.
MAX_BITS = 1024


def make_nodes(kind, count, capacities=None):
    config = SummaryConfig(kind=kind, load_factor=8)
    return [
        SummaryNode(config, (capacities or [CAPACITY] * count)[slot])
        for slot in range(count)
    ]


class Reference:
    """The copies a proxy would hold one per peer."""

    def __init__(self, kind):
        self.kind = kind
        self.copies = {}

    def reset(self, slot, geometry):
        if self.kind == "bloom":
            num_bits, spec = geometry
            family = MD5HashFamily.from_spec(*spec)
            self.copies[slot] = BloomFilter(num_bits, hash_family=family)
        else:
            self.copies[slot] = set()

    def drop(self, slot):
        self.copies.pop(slot, None)

    def apply(self, slot, delta):
        copy = self.copies[slot]
        if isinstance(copy, BloomFilter):
            copy.apply_flips(delta.flips)
        else:
            copy.difference_update(delta.removed)
            copy.update(delta.added)

    def geometry(self, slot):
        copy = self.copies.get(slot)
        if copy is None or isinstance(copy, set):
            return None if copy is None else ()
        return copy.num_bits, copy.hash_family.spec()

    def mask(self, url):
        mask = 0
        for slot, copy in self.copies.items():
            if isinstance(copy, BloomFilter):
                held = copy.may_contain(url)
            else:
                held = SET_KEYS[self.kind](url) in copy
            mask |= held << slot
        return mask


def assert_agrees(shipped, reference, count):
    for url in URLS:
        assert shipped.probe(shipped.key_of(url)) == reference.mask(url), url
    for slot in range(count):
        assert shipped.geometry(slot) == reference.geometry(slot), slot


#: One step of a run: (node, url index, what happens).
steps = st.lists(
    st.tuples(
        st.integers(0, 99),
        st.integers(0, len(URLS) - 1),
        st.sampled_from(
            [
                "insert",
                "evict",
                "publish",
                "publish-twice",
                "empty",
                "resize",
                "drop",
            ]
        ),
    ),
    max_size=120,
)

def run_steps(kind, capacities, ops):
    """Drive one store and its reference through *ops*, checking both
    agree after every step and, once every slot is resynced, that no
    copy has a false negative."""
    count = len(capacities)
    nodes = make_nodes(kind, count, capacities)
    held = [set() for _ in nodes]
    shipped = PeerSummaries.of([node.local for node in nodes])
    reference = Reference(kind)
    for slot, node in enumerate(nodes):
        reference.reset(slot, node.local.geometry)

    def resync(slot):
        # The whole summary, as after a resize's digest transfer;
        # what was pending goes with it.
        nodes[slot].publish(now=0.0)
        geometry = nodes[slot].local.geometry
        shipped.reset_slot(slot, geometry)
        reference.reset(slot, geometry)
        whole = nodes[slot].local.export()
        shipped.apply_delta(slot, whole)
        reference.apply(slot, whole)

    def publish(slot, times=1):
        delta = nodes[slot].publish(now=0.0)
        if shipped.geometry(slot) is None:
            # The first update after a drop initializes the copy.
            shipped.reset_slot(slot, nodes[slot].local.geometry)
            reference.reset(slot, nodes[slot].local.geometry)
        for _ in range(times):
            # Absolute records: a delta delivered twice is harmless.
            shipped.apply_delta(slot, delta)
            reference.apply(slot, delta)

    for pick, index, action in ops:
        slot = pick % count
        url = URLS[index]
        node = nodes[slot]
        if action == "insert" and url not in held[slot]:
            node.on_insert(url)
            held[slot].add(url)
        elif action == "evict" and url in held[slot]:
            node.on_evict(url)
            held[slot].discard(url)
        elif action == "publish":
            publish(slot)
        elif action == "publish-twice":
            publish(slot, times=2)
        elif action == "empty":
            # The slot goes back to empty: every document leaves and
            # the change is published.
            for gone in sorted(held[slot]):
                node.on_evict(gone)
            held[slot].clear()
            publish(slot)
            assert not any(
                shipped.probe(shipped.key_of(u)) >> slot & 1 for u in URLS
            )
        elif action == "resize":
            # A Bloom rebuild doubles the filter: the copy moves to the
            # new geometry's columns and is resynced whole.  Set
            # summaries never outgrow themselves; theirs is a resync.
            if kind == "bloom" and node.local.num_bits < MAX_BITS:
                node.rebuild(sorted(held[slot]), now=0.0)
            resync(slot)
        elif action == "drop":
            shipped.drop_slot(slot)
            reference.drop(slot)
        assert_agrees(shipped, reference, count)

    for slot in range(count):
        resync(slot)
    assert_agrees(shipped, reference, count)
    # Fully resynced, no copy is stale: no false negatives.
    for slot, urls in enumerate(held):
        for url in urls:
            assert shipped.probe(shipped.key_of(url)) >> slot & 1


class TestAgainstPerPeerCopies:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("count", [1, 3, 70])  # 70: masks past 64 bits
    @given(steps)
    @settings(max_examples=25, deadline=None)
    def test_probe_equals_may_contain_of_every_copy(self, kind, count, ops):
        run_steps(kind, [CAPACITY] * count, ops)

    @given(steps)
    @settings(max_examples=25, deadline=None)
    def test_bloom_filters_of_different_sizes(self, ops):
        # Capacities differ, so geometries do: one URL has different
        # positions at different peers, and one key must carry them all.
        capacities = [64 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 16 * 1024]
        geometries = {n.local.geometry for n in make_nodes("bloom", 5, capacities)}
        assert len(geometries) == 3
        run_steps("bloom", capacities, ops)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_starts_from_what_each_summary_exports(self, kind):
        nodes = make_nodes(kind, 4)
        for slot, node in enumerate(nodes):
            for url in URLS[slot::3]:
                node.on_insert(url)
        shipped = PeerSummaries.of([node.local for node in nodes])
        reference = Reference(kind)
        for slot, node in enumerate(nodes):
            reference.reset(slot, node.local.geometry)
            reference.apply(slot, node.local.export())
        assert_agrees(shipped, reference, 4)


class TestSlotLifecycle:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_slot_with_no_copy_answers_no(self, kind):
        shipped = PeerSummaries.empty(kind)
        assert shipped.geometry(3) is None
        assert all(shipped.probe(shipped.key_of(u)) == 0 for u in URLS)
        node = make_nodes(kind, 1)[0]
        for url in URLS:
            node.on_insert(url)
        with pytest.raises(SummaryMismatchError):
            shipped.apply_delta(3, node.publish(now=0.0))
        shipped.reset_slot(3, node.local.geometry)
        shipped.apply_delta(3, node.local.export())
        assert all(shipped.probe(shipped.key_of(u)) == 1 << 3 for u in URLS)
        shipped.drop_slot(3)
        assert shipped.geometry(3) is None
        assert all(shipped.probe(shipped.key_of(u)) == 0 for u in URLS)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_reset_slot_starts_empty_beside_its_group(self, kind):
        nodes = make_nodes(kind, 2)
        for node in nodes:
            for url in URLS:
                node.on_insert(url)
        shipped = PeerSummaries.of([node.local for node in nodes])

        def masks():
            return {shipped.probe(shipped.key_of(u)) for u in URLS}

        assert masks() == {0b11}
        # Slot 1 stays in the geometry slot 0 is reset to.
        shipped.reset_slot(0, nodes[0].local.geometry)
        assert masks() == {0b10}
        shipped.drop_slot(1)
        shipped.reset_slot(1, nodes[1].local.geometry)
        assert masks() == {0}

    def test_a_group_nobody_uses_loses_its_columns(self):
        nodes = make_nodes("bloom", 2, [64 * 1024, 16 * 1024])
        shipped = PeerSummaries.of([node.local for node in nodes])
        assert len(shipped._groups) == 2
        shipped.reset_slot(1, nodes[0].local.geometry)
        assert len(shipped._groups) == 1
        # One geometry again: the key is that geometry's positions.
        assert shipped.key_of(URLS[0]) == nodes[0].local.key_of(URLS[0])
        shipped.drop_slot(0)
        shipped.drop_slot(1)
        assert not shipped._groups

    def test_an_unusable_geometry_changes_nothing(self):
        node = make_nodes("bloom", 1)[0]
        node.on_insert(URLS[0])
        shipped = PeerSummaries.of([node.local])
        with pytest.raises(ConfigurationError):
            shipped.reset_slot(0, (64, (4, 65)))  # > 64 bits per function
        assert shipped.geometry(0) == node.local.geometry
        assert shipped.probe(shipped.key_of(URLS[0])) == 1
        exact = PeerSummaries.empty("exact-directory")
        with pytest.raises(ConfigurationError):
            exact.reset_slot(0, node.local.geometry)
        with pytest.raises(ConfigurationError):
            PeerSummaries.empty("merkle")


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
