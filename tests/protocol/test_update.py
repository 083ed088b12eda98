"""Tests for update batching, application, and digest reassembly."""

from __future__ import annotations

import random

import pytest

from repro.core.bloom import BloomFilter
from repro.core.hashing import MD5HashFamily
from repro.errors import ProtocolError, SummaryMismatchError
from repro.protocol.update import (
    FLIPS_PER_MESSAGE,
    MTU,
    DigestAssembler,
    build_digest_messages,
    build_dir_update_messages,
)
from repro.protocol.wire import DigestChunk, decode_message
from repro.summaries import PeerSummaries, codec
from repro.summaries.bloom import BloomSummary
from tests.conftest import plain_copy


def filled_filter(num_keys: int = 300) -> BloomSummary:
    cbf = BloomSummary(max(num_keys, 1))
    for i in range(num_keys):
        cbf.add(f"http://server{i % 37}.com/doc{i}")
    return cbf


def digest(cbf: BloomSummary):
    """*cbf*'s whole bit array as DIGEST chunks."""
    return build_digest_messages(
        cbf.counters.bits.to_bytes(), cbf.hash_family, cbf.num_bits
    )


class TestDirUpdateBatching:
    def test_messages_fit_mtu(self):
        cbf = filled_filter()
        flips = cbf.drain_delta().flips
        messages = build_dir_update_messages(
            flips, cbf.hash_family, cbf.num_bits
        )
        assert len(messages) > 1
        assert all(len(m.encode()) <= MTU for m in messages)
        assert len(messages[0].flips) == FLIPS_PER_MESSAGE == 342
        assert sum(len(m.flips) for m in messages) == len(flips)

    def test_every_message_carries_full_header(self):
        # "every update message carries the header, which specifies the
        # hash functions, so that receivers can verify the information."
        cbf = filled_filter()
        messages = build_dir_update_messages(
            cbf.drain_delta().flips, cbf.hash_family, cbf.num_bits
        )
        assert len(messages) > 1
        for m in messages:
            assert (m.function_num, m.function_bits) == cbf.hash_family.spec()
            assert m.bit_array_size == cbf.num_bits

    def test_applying_all_messages_syncs_peer(self):
        cbf = filled_filter()
        messages = build_dir_update_messages(
            cbf.drain_delta().flips, cbf.hash_family, cbf.num_bits
        )
        peer = BloomFilter(cbf.num_bits, hash_family=cbf.hash_family)
        for m in messages:
            peer.apply_flips(decode_message(m.encode()).flips)
        assert peer == plain_copy(cbf)

    def test_replay_and_reorder_are_harmless(self):
        """Absolute records make application order- and duplicate-proof
        (within one batch, where each bit appears once)."""
        cbf = filled_filter()
        messages = build_dir_update_messages(
            cbf.drain_delta().flips, cbf.hash_family, cbf.num_bits
        )
        peer = BloomFilter(cbf.num_bits, hash_family=cbf.hash_family)
        shuffled = list(messages) * 2
        random.Random(3).shuffle(shuffled)
        for m in shuffled:
            peer.apply_flips(m.flips)
        assert peer == plain_copy(cbf)

    def test_loss_affects_only_lost_bits(self):
        """Dropping one update message must not corrupt bits carried by
        other messages -- the paper's loss-tolerance design goal."""
        cbf = filled_filter()
        messages = build_dir_update_messages(
            cbf.drain_delta().flips, cbf.hash_family, cbf.num_bits
        )
        assert len(messages) >= 3
        peer = BloomFilter(cbf.num_bits, hash_family=cbf.hash_family)
        lost = messages[1]
        for m in messages:
            if m is not lost:
                peer.apply_flips(m.flips)
        expected = plain_copy(cbf)
        lost_indices = {idx for idx, _v in lost.flips}
        for i in range(cbf.num_bits):
            if i not in lost_indices:
                assert peer.bits.get(i) == expected.bits.get(i)

    def test_empty_flips_yield_no_messages(self):
        cbf = filled_filter(5)
        cbf.drain_delta().flips
        assert (
            build_dir_update_messages(
                [], cbf.hash_family, cbf.num_bits
            )
            == []
        )


class TestApplyGeometryCheck:
    """The receiver checks each header against the copy it holds."""

    @staticmethod
    def assert_mismatch(num_bits: int, family: MD5HashFamily) -> None:
        cbf = filled_filter(20)
        messages = build_dir_update_messages(
            cbf.drain_delta().flips, cbf.hash_family, cbf.num_bits
        )
        store = PeerSummaries.empty("bloom")
        store.reset_slot(0, (num_bits, family.spec()))
        with pytest.raises(ProtocolError, match="geometry"):
            codec.apply_update(store, 0, messages[0])

    def test_bit_count_mismatch(self):
        cbf = filled_filter(20)
        self.assert_mismatch(cbf.num_bits * 2, cbf.hash_family)

    def test_hash_spec_mismatch(self):
        cbf = filled_filter(20)
        self.assert_mismatch(cbf.num_bits, MD5HashFamily(num_functions=5))


class TestDigestTransfer:
    def test_chunking_and_reassembly(self):
        cbf = filled_filter(5000)
        chunks = digest(cbf)
        assert len(chunks) > 1
        assert all(len(c.encode()) <= MTU for c in chunks)
        assembler = DigestAssembler()
        result = None
        for chunk in chunks:
            result = assembler.add(decode_message(chunk.encode()))
        assert result == plain_copy(cbf)

    def test_out_of_order_and_duplicate_chunks(self):
        cbf = filled_filter(5000)
        chunks = digest(cbf)
        assembler = DigestAssembler()
        shuffled = list(chunks) + [chunks[0]]
        random.Random(11).shuffle(shuffled)
        results = [assembler.add(c) for c in shuffled]
        completed = [r for r in results if r is not None]
        assert completed and completed[-1] == plain_copy(cbf)

    def test_incomplete_returns_none(self):
        cbf = filled_filter(5000)
        chunks = digest(cbf)
        assembler = DigestAssembler()
        assert assembler.add(chunks[0]) is None

    def test_geometry_change_restarts_assembly(self):
        big = filled_filter(5000)
        small = filled_filter(50)
        big_chunks = digest(big)
        small_chunks = digest(small)
        assembler = DigestAssembler()
        assembler.add(big_chunks[0])
        # A chunk with different geometry discards the partial state.
        result = assembler.add(small_chunks[0])
        assert result == plain_copy(small)

    def test_lost_chunk_never_completes_from_the_next_snapshot(self):
        cbf = filled_filter(5000)
        older = digest(cbf)
        for i in range(500, 560):  # same geometry, other bits
            cbf.add(f"http://later.com/doc{i}")
        newer = digest(cbf)
        assert older[0].request_number != newer[0].request_number
        assembler = DigestAssembler()
        # The older transfer lost its first chunk; the newer one arrives
        # whole and is the only filter completed.
        results = [assembler.add(c) for c in older[1:] + newer]
        completed = [r for r in results if r is not None]
        assert completed == [plain_copy(cbf)]

    def test_assembler_resets_after_completion(self):
        cbf = filled_filter(100)
        chunks = digest(cbf)
        assembler = DigestAssembler()
        first = assembler.add(chunks[0])
        second = assembler.add(chunks[0])
        assert first == second == plain_copy(cbf)

    def test_unusable_family_is_rejected_not_raised_as_config(self):
        # Function_Bits 65 fits the header's 16 bits, but no family
        # slices MD5 that wide: the same SummaryMismatchError a DIRUPDATE
        # with that header meets when it is applied.
        assembler = DigestAssembler()
        chunk = DigestChunk(
            function_num=4,
            function_bits=65,
            bit_array_size=8,
            byte_offset=0,
            total_bytes=1,
            payload=b"\x01",
        )
        with pytest.raises(SummaryMismatchError, match="unusable geometry"):
            assembler.add(chunk)
        # The failed transfer is dropped; a good one completes alone.
        good = filled_filter(5)
        assert assembler.add(digest(good)[0]) == plain_copy(good)
