"""Tests for update batching, application, and digest reassembly."""

from __future__ import annotations

import random

import pytest

from repro.core.bloom import BloomFilter
from repro.core.counting_bloom import CountingBloomFilter
from repro.core.hashing import MD5HashFamily
from repro.errors import ProtocolError
from repro.protocol.update import (
    FLIPS_PER_MESSAGE,
    MTU,
    DigestAssembler,
    build_digest_messages,
    build_dir_update_messages,
)
from repro.protocol.wire import decode_message
from repro.summaries import PeerSummaries, codec


def filled_filter(num_keys: int = 300) -> CountingBloomFilter:
    cbf = CountingBloomFilter.for_capacity(max(num_keys, 1), load_factor=8)
    for i in range(num_keys):
        cbf.add(f"http://server{i % 37}.com/doc{i}")
    return cbf


class TestDirUpdateBatching:
    def test_messages_fit_mtu(self):
        cbf = filled_filter()
        flips = cbf.drain_flips()
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
            cbf.drain_flips(), cbf.hash_family, cbf.num_bits
        )
        assert len(messages) > 1
        for m in messages:
            assert (m.function_num, m.function_bits) == cbf.hash_family.spec()
            assert m.bit_array_size == cbf.num_bits

    def test_applying_all_messages_syncs_peer(self):
        cbf = filled_filter()
        messages = build_dir_update_messages(
            cbf.drain_flips(), cbf.hash_family, cbf.num_bits
        )
        peer = BloomFilter(cbf.num_bits, hash_family=cbf.hash_family)
        for m in messages:
            peer.apply_flips(decode_message(m.encode()).flips)
        assert peer == cbf.snapshot()

    def test_replay_and_reorder_are_harmless(self):
        """Absolute records make application order- and duplicate-proof
        (within one batch, where each bit appears once)."""
        cbf = filled_filter()
        messages = build_dir_update_messages(
            cbf.drain_flips(), cbf.hash_family, cbf.num_bits
        )
        peer = BloomFilter(cbf.num_bits, hash_family=cbf.hash_family)
        shuffled = list(messages) * 2
        random.Random(3).shuffle(shuffled)
        for m in shuffled:
            peer.apply_flips(m.flips)
        assert peer == cbf.snapshot()

    def test_loss_affects_only_lost_bits(self):
        """Dropping one update message must not corrupt bits carried by
        other messages -- the paper's loss-tolerance design goal."""
        cbf = filled_filter()
        messages = build_dir_update_messages(
            cbf.drain_flips(), cbf.hash_family, cbf.num_bits
        )
        assert len(messages) >= 3
        peer = BloomFilter(cbf.num_bits, hash_family=cbf.hash_family)
        lost = messages[1]
        for m in messages:
            if m is not lost:
                peer.apply_flips(m.flips)
        expected = cbf.snapshot()
        lost_indices = {idx for idx, _v in lost.flips}
        for i in range(cbf.num_bits):
            if i not in lost_indices:
                assert peer.bits.get(i) == expected.bits.get(i)

    def test_empty_flips_yield_no_messages(self):
        cbf = filled_filter(5)
        cbf.drain_flips()
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
            cbf.drain_flips(), cbf.hash_family, cbf.num_bits
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
        chunks = build_digest_messages(cbf)
        assert len(chunks) > 1
        assert all(len(c.encode()) <= MTU for c in chunks)
        assembler = DigestAssembler()
        result = None
        for chunk in chunks:
            result = assembler.add(decode_message(chunk.encode()))
        assert result == cbf.snapshot()

    def test_out_of_order_and_duplicate_chunks(self):
        cbf = filled_filter(5000)
        chunks = build_digest_messages(cbf)
        assembler = DigestAssembler()
        shuffled = list(chunks) + [chunks[0]]
        random.Random(11).shuffle(shuffled)
        results = [assembler.add(c) for c in shuffled]
        completed = [r for r in results if r is not None]
        assert completed and completed[-1] == cbf.snapshot()

    def test_incomplete_returns_none(self):
        cbf = filled_filter(5000)
        chunks = build_digest_messages(cbf)
        assembler = DigestAssembler()
        assert assembler.add(chunks[0]) is None

    def test_geometry_change_restarts_assembly(self):
        big = filled_filter(5000)
        small = filled_filter(50)
        big_chunks = build_digest_messages(big)
        small_chunks = build_digest_messages(small)
        assembler = DigestAssembler()
        assembler.add(big_chunks[0])
        # A chunk with different geometry discards the partial state.
        result = assembler.add(small_chunks[0])
        assert result == small.snapshot()

    def test_lost_chunk_never_completes_from_the_next_snapshot(self):
        cbf = filled_filter(5000)
        older = build_digest_messages(cbf)
        for i in range(500, 560):  # same geometry, other bits
            cbf.add(f"http://later.com/doc{i}")
        newer = build_digest_messages(cbf)
        assert older[0].request_number != newer[0].request_number
        assembler = DigestAssembler()
        # The older transfer lost its first chunk; the newer one arrives
        # whole and is the only filter completed.
        results = [assembler.add(c) for c in older[1:] + newer]
        completed = [r for r in results if r is not None]
        assert completed == [cbf.snapshot()]

    def test_assembler_resets_after_completion(self):
        cbf = filled_filter(100)
        chunks = build_digest_messages(cbf)
        assembler = DigestAssembler()
        first = assembler.add(chunks[0])
        second = assembler.add(chunks[0])
        assert first == second == cbf.snapshot()
