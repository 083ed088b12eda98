"""Tests for the representation-tagged summary codec."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    ProtocolError,
    SummaryMismatchError,
)
from repro.protocol.wire import (
    REPR_BLOOM,
    REPR_EXACT,
    REPR_SERVER_NAME,
    DigestChunk,
    DirUpdate,
    SetDirUpdate,
)
from repro.protocol.update import DigestAssembler
from repro.summaries import PeerSummaries, SummaryConfig, SummaryNode, codec
from repro.summaries.backend import MAX_SUMMARY_BITS
from repro.summaries.bloom import BloomSummary
from repro.summaries.keyset import KeySetSummary

URLS = [f"http://c{i % 5}.codec.net/doc{i}" for i in range(25)]
#: Expected documents of the two Bloom geometries the encoding rule is
#: checked on: 512 and 4,096 bits at load factor 8.
GEOMETRIES = (64, 512)
ALL_KINDS = ("bloom", "exact-directory", "server-name")


def node_for(kind: str) -> SummaryNode:
    return SummaryNode(SummaryConfig(kind=kind), 1024 * 1024)


def messages_for(node: SummaryNode, now: float = 1.0):
    delta = node.publish(now)
    return codec.delta_messages(node.local, delta)


class TestRepresentationIds:
    @pytest.mark.parametrize(
        "kind, rep",
        [
            ("bloom", REPR_BLOOM),
            ("exact-directory", REPR_EXACT),
            ("server-name", REPR_SERVER_NAME),
        ],
    )
    def test_kind_id_roundtrip(self, kind, rep):
        assert codec.KIND_TO_REPRESENTATION[kind] == rep
        assert codec.representation_kind(rep) == kind

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            codec.representation_kind(9)


class TestDeltaMessages:
    @pytest.mark.parametrize(
        "kind, message_type",
        [
            ("bloom", DirUpdate),
            ("exact-directory", SetDirUpdate),
            ("server-name", SetDirUpdate),
        ],
    )
    def test_dispatch_per_summary_type(self, kind, message_type):
        node = node_for(kind)
        for url in URLS:
            node.on_insert(url)
        messages = messages_for(node)
        assert messages
        assert all(isinstance(m, message_type) for m in messages)

    def test_empty_delta_yields_no_messages(self):
        node = node_for("exact-directory")
        assert messages_for(node) == []

    def test_whole_summary_messages_bloom_only(self):
        node = node_for("bloom")
        node.on_insert(URLS[0])
        chunks = codec.whole_summary_messages(node.local)
        assert chunks
        assert all(isinstance(c, DigestChunk) for c in chunks)
        with pytest.raises(ConfigurationError):
            codec.whole_summary_messages(node_for("server-name").local)


def replay(kind: str, messages, store=None):
    """Apply *messages* to slot 0 of *store* (a fresh *kind* store)."""
    store = store or PeerSummaries.empty(kind)
    for message in messages:
        codec.apply_update(store, 0, message)
    return store


def holds(store, url: str, slot: int = 0) -> bool:
    return bool(store.probe(store.key_of(url)) >> slot & 1)


class TestApplyUpdate:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_lazy_init_and_sync(self, kind):
        """A slot with no copy converges on the sender's summary by
        replaying its update stream."""
        node = node_for(kind)
        store = PeerSummaries.empty(kind)
        assert store.geometry(0) is None
        assert not holds(store, URLS[0])
        for batch in (URLS[:10], URLS[10:]):
            for url in batch:
                node.on_insert(url)
            replay(kind, messages_for(node), store)
        assert store.geometry(0) == node.local.geometry
        assert all(holds(store, u) for u in URLS)

    def test_removals_replay(self):
        node = node_for("exact-directory")
        for url in URLS:
            node.on_insert(url)
        store = replay("exact-directory", messages_for(node))
        node.on_evict(URLS[3])
        replay("exact-directory", messages_for(node, now=2.0), store)
        assert not holds(store, URLS[3])
        assert holds(store, URLS[4])

    @staticmethod
    def assert_rejected_untouched(sender: str, receiver: str) -> None:
        node = node_for(sender)
        node.on_insert(URLS[0])
        message = messages_for(node)[0]
        store = PeerSummaries.empty(receiver)
        with pytest.raises(SummaryMismatchError):
            codec.apply_update(store, 0, message)
        assert store.geometry(0) is None

    def test_bloom_delta_onto_set_copy_mismatch(self):
        self.assert_rejected_untouched("bloom", "exact-directory")
        self.assert_rejected_untouched("exact-directory", "bloom")

    def test_set_delta_onto_wrong_set_copy_mismatch(self):
        self.assert_rejected_untouched("server-name", "exact-directory")

    def test_bloom_geometry_change_mismatch(self):
        node = node_for("bloom")
        node.on_insert(URLS[0])
        message = messages_for(node)[0]
        store = replay("bloom", [message])
        stale = DirUpdate(
            function_num=message.function_num,
            function_bits=message.function_bits,
            bit_array_size=message.bit_array_size * 2,
            flips=((0, True),),
        )
        with pytest.raises(SummaryMismatchError):
            codec.apply_update(store, 0, stale)
        assert store.geometry(0) == node.local.geometry
        assert holds(store, URLS[0])

    def test_unusable_hash_spec_is_a_mismatch(self):
        """A header the hash family cannot honour (over 64 bits per
        function) is rejected, not raised out of the datagram path."""
        store = PeerSummaries.empty("bloom")
        update = DirUpdate(
            function_num=4, function_bits=65, bit_array_size=64
        )
        with pytest.raises(SummaryMismatchError):
            codec.apply_update(store, 0, update)
        assert store.geometry(0) is None

    def test_digest_replaces_the_copy(self):
        node = SummaryNode(SummaryConfig(kind="bloom"), 2 * 1024, 1024)
        for url in URLS[:5]:
            node.on_insert(url)
        store = replay("bloom", messages_for(node))
        for url in URLS[5:]:
            node.on_insert(url)
        for url in URLS[:5]:
            node.on_evict(url)
        assert node.grow(URLS[5:], now=2.0)  # double the bits
        chunks = codec.whole_summary_messages(node.local)
        assembler = DigestAssembler()
        for chunk in chunks:
            codec.apply_digest(store, 0, assembler, chunk)
        assert store.geometry(0) == node.local.geometry
        assert all(holds(store, u) for u in URLS[5:])
        with pytest.raises(SummaryMismatchError):
            codec.apply_digest(
                PeerSummaries.empty("server-name"), 0, assembler, chunks[0]
            )

    def test_digest_tail_bits_past_num_bits_are_ignored(self):
        # 12 bits travel in 2 bytes; the last byte's top 4 bits name
        # positions 12-15, which the copy does not have.
        store = PeerSummaries.empty("bloom")
        chunk = DigestChunk(4, 32, 12, 0, 2, b"\x05\xff")
        assert codec.apply_digest(store, 0, DigestAssembler(), chunk) == (
            12,
            (4, 32),
        )
        assert slot_bits(store, 12) == {0, 2, 8, 9, 10, 11}

    @pytest.mark.parametrize("message", ["dirupdate", "digest"])
    def test_geometry_over_the_bound_is_a_mismatch(self, message):
        node = node_for("bloom")
        node.on_insert(URLS[0])
        store = replay("bloom", messages_for(node))
        held = store.geometry(0)
        over = MAX_SUMMARY_BITS + 1
        assembler = DigestAssembler()
        with pytest.raises(SummaryMismatchError, match="bound"):
            if message == "dirupdate":
                codec.apply_update(store, 0, DirUpdate(4, 32, over))
            else:
                first = DigestChunk(4, 32, over, 0, (over + 7) // 8, b"\x01")
                codec.apply_digest(store, 0, assembler, first)
        assert store.geometry(0) == held
        # At the bound the header passes: a first chunk is buffered.
        at = DigestChunk(4, 32, MAX_SUMMARY_BITS, 0, MAX_SUMMARY_BITS // 8, b"\x01")
        assert codec.apply_digest(store, 0, assembler, at) is None

    def test_lost_chunk_does_not_mix_two_digests(self):
        # 16,384 bits travel in two chunks of one geometry.
        node = SummaryNode(
            SummaryConfig(kind="bloom", load_factor=8), 2048 * 1024, 1024
        )
        urls = [f"http://m{i % 9}.mix.net/d{i}" for i in range(400)]
        for url in urls[:200]:
            node.on_insert(url)
        older = codec.whole_summary_messages(node.local)
        for url in urls[200:]:
            node.on_insert(url)
        newer = codec.whole_summary_messages(node.local)
        assert len(older) == len(newer) == 2
        assert older[1].payload != newer[1].payload
        store = PeerSummaries.empty("bloom")
        assembler = DigestAssembler()
        completed = 0
        for chunk in older[1:] + newer:  # the older first chunk is lost
            if codec.apply_digest(store, 0, assembler, chunk) is not None:
                completed += 1
        assert completed == 1
        sender = {i for i, _ in node.local.export().flips}
        assert slot_bits(store, node.local.num_bits) == sender

    def test_mismatch_is_a_protocol_error(self):
        assert issubclass(SummaryMismatchError, ProtocolError)


class TestLocalRemoteAgreement:
    """A local summary and the peer copy its export seeds must answer
    membership identically (Bloom included: the copy is the same bits)."""

    @staticmethod
    def assert_agrees(summary) -> None:
        for url in URLS:
            summary.add(url)
        store = PeerSummaries.of([summary])
        probes = URLS + ["http://other.net/x", "http://c0.codec.net/no"]
        for url in probes:
            assert holds(store, url) == summary.may_contain(url)

    @pytest.mark.parametrize("kind", ["exact-directory", "server-name"])
    def test_export_matches_local(self, kind):
        self.assert_agrees(KeySetSummary(kind))

    def test_bloom_export_matches_local(self):
        self.assert_agrees(BloomSummary(1000, SummaryConfig(kind="bloom")))


def deliver(store, messages, slot: int = 0) -> None:
    """Patch *slot* of *store* with one update's *messages*, as a
    receiving proxy does: DIRUPDATEs one by one, DIGEST chunks once
    the array is whole."""
    assembler = DigestAssembler()
    for message in messages:
        if isinstance(message, DigestChunk):
            codec.apply_digest(store, slot, assembler, message)
        else:
            codec.apply_update(store, slot, message)


def slot_bits(store, num_bits: int, slot: int = 0) -> set:
    """The set bits of *slot*'s Bloom copy (one geometry in *store*)."""
    return {i for i in range(num_bits) if store.probe((i,)) >> slot & 1}


class TestUpdateEncodingRule:
    def test_crossover_is_four_bytes_a_flip(self):
        # 512 bits are 64 bytes: 16 flip records tie, 17 outweigh them.
        assert not codec.ships_whole(16, 512)
        assert codec.ships_whole(17, 512)
        assert codec.ships_whole(1, 1)  # 4 bytes against one byte
        assert not codec.ships_whole(0, 8)

    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.sampled_from(GEOMETRIES),
        base=st.integers(0, 20),
        inserts=st.integers(1, 80),
        evicts=st.integers(0, 20),
    )
    @example(docs=64, base=0, inserts=1, evicts=0)
    @example(docs=64, base=10, inserts=40, evicts=5)
    @example(docs=512, base=20, inserts=2, evicts=1)
    @example(docs=512, base=0, inserts=80, evicts=0)
    def test_bloom_update_follows_the_rule(self, docs, base, inserts, evicts):
        node = SummaryNode(
            SummaryConfig(kind="bloom", load_factor=8), docs * 1024, 1024
        )
        urls = [f"http://e{i % 7}.rule.net/d{i}" for i in range(base + inserts)]
        for url in urls[:base]:
            node.on_insert(url)
        store = PeerSummaries.empty("bloom")
        first = node.publish(0.0)
        if not first.is_empty():
            deliver(store, codec.update_messages(node.local, first))
        for url in urls[base:]:
            node.on_insert(url)
        for url in urls[: min(evicts, base)]:
            node.on_evict(url)
        delta = node.publish(1.0)
        num_bits = node.local.num_bits

        messages = codec.update_messages(node.local, delta)
        whole = codec.ships_whole(delta.change_count, num_bits)
        expected = DigestChunk if whole else DirUpdate
        assert messages
        assert all(isinstance(m, expected) for m in messages)

        deliver(store, messages)
        sender = {i for i, _ in node.local.export().flips}
        assert slot_bits(store, num_bits) == sender

    @settings(max_examples=20, deadline=None)
    @given(
        kind=st.sampled_from(("exact-directory", "server-name")),
        inserts=st.integers(1, 200),
    )
    def test_set_representations_always_ship_a_delta(self, kind, inserts):
        node = SummaryNode(SummaryConfig(kind=kind), 16 * 1024, 1024)
        for i in range(inserts):
            node.on_insert(f"http://e{i % 7}.rule.net/d{i}")
        messages = codec.update_messages(node.local, node.publish(1.0))
        assert messages
        assert all(isinstance(m, SetDirUpdate) for m in messages)

    @pytest.mark.parametrize("docs", GEOMETRIES)
    def test_no_delta_ships_the_whole_array(self, docs):
        node = SummaryNode(
            SummaryConfig(kind="bloom", load_factor=8), docs * 1024, 1024
        )
        for url in URLS:
            node.on_insert(url)
        # The resync after a growth: no delta, the whole array.
        messages = codec.whole_summary_messages(node.local)
        assert messages
        assert all(isinstance(m, DigestChunk) for m in messages)
        store = PeerSummaries.empty("bloom")
        deliver(store, messages)
        sender = {i for i, _ in node.local.export().flips}
        assert slot_bits(store, node.local.num_bits) == sender
