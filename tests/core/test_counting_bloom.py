"""Tests for the counting Bloom filter (the paper's contribution):
:class:`~repro.summaries.bloom.BloomSummary` over its
:class:`~repro.core.bitarray.CounterArray`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitarray import CounterArray
from repro.errors import BitIndexError, ConfigurationError, SummaryStateError
from repro.summaries import PacketFillUpdatePolicy, SummaryConfig, SummaryNode
from repro.summaries.bloom import BloomSummary
from tests.conftest import plain_copy


def summary(num_bits: int, counter_width: int = 4) -> BloomSummary:
    """A Bloom summary of exactly *num_bits* bits (one expected document)."""
    return BloomSummary(
        1, SummaryConfig(load_factor=num_bits, counter_width=counter_width)
    )


class TestAddRemove:
    def test_add_then_contains(self):
        cbf = summary(1024)
        cbf.add("http://a.com/x")
        assert cbf.may_contain("http://a.com/x")
        assert plain_copy(cbf).may_contain("http://a.com/x")

    def test_remove_restores_emptiness(self):
        cbf = summary(1024)
        cbf.add("http://a.com/x")
        cbf.remove("http://a.com/x")
        assert not cbf.may_contain("http://a.com/x")
        assert cbf.fill_ratio() == 0.0

    def test_overlapping_keys_survive_removal(self):
        # Deleting one key must not delete another that shares bits:
        # this is exactly what the counters buy over a plain filter.
        cbf = summary(64)  # tiny: collisions guaranteed
        keys = [f"http://s{i}.com/d" for i in range(20)]
        for key in keys:
            cbf.add(key)
        cbf.remove(keys[0])
        assert all(cbf.may_contain(k) for k in keys[1:])

    def test_remove_unknown_key_raises_and_leaves_state(self):
        cbf = summary(1024)
        cbf.add("http://a.com/x")
        before = plain_copy(cbf)
        with pytest.raises(ValueError):
            cbf.remove("http://never-added.com/y")
        assert plain_copy(cbf) == before

    def test_bad_remove_midway_leaves_counters_bits_and_flips(self):
        # A tiny filter, so an absent key shares its first position with
        # present keys: that counter could be decremented before the
        # zero one further on is met.  Nothing may move.
        cbf = summary(16)
        for key in ("a", "b"):
            cbf.add(key)

        def fails_midway(key):
            counts = [cbf.counters.get(p) for p in cbf.key_of(key)]
            return counts[0] > 0 and 0 in counts

        absent = next(
            key for key in (f"absent{i}" for i in range(1000))
            if fails_midway(key)
        )
        counters = cbf.counters.to_bytes()
        bits = plain_copy(cbf)
        pending = cbf.counters.peek_flips()
        with pytest.raises(ValueError):
            cbf.remove(absent)
        assert cbf.counters.to_bytes() == counters
        assert plain_copy(cbf) == bits
        assert cbf.counters.peek_flips() == pending
        assert cbf.pending_change_count() == len(pending)

    def test_colliding_positions_of_one_key_count_twice(self):
        # Two bits, four hash functions: positions repeat within the key.
        cbf = summary(2)
        cbf.add("k")
        positions = cbf.key_of("k")
        assert len(set(positions)) < len(positions)
        assert sum(cbf.counters.get(p) for p in set(positions)) == 4
        assert sorted(cbf.counters.peek_flips()) == [
            (p, True) for p in sorted(set(positions))
        ]
        cbf.remove("k")
        assert list(cbf.counters.bits.iter_set_bits()) == []
        assert cbf.fill_ratio() == 0.0
        assert cbf.drain_delta().flips == []

    def test_for_capacity(self):
        cbf = BloomSummary(100, SummaryConfig(load_factor=16))
        assert cbf.num_bits == 1600

    def test_for_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            BloomSummary(0)
        with pytest.raises(ConfigurationError):
            SummaryConfig(load_factor=0)


class TestDeltaFlips:
    def test_add_records_set_flips(self):
        cbf = summary(1 << 16)
        cbf.add("http://a.com/x")
        flips = cbf.drain_delta().flips
        assert flips
        assert all(value is True for _idx, value in flips)

    def test_add_remove_cancels_out(self):
        cbf = summary(1 << 16)
        cbf.add("http://a.com/x")
        cbf.remove("http://a.com/x")
        assert cbf.drain_delta().flips == []

    def test_drain_clears_pending(self):
        cbf = summary(1 << 16)
        cbf.add("u1")
        cbf.drain_delta()
        assert cbf.pending_change_count() == 0
        assert cbf.drain_delta().flips == []

    def test_peek_does_not_clear(self):
        cbf = summary(1 << 16)
        cbf.add("u1")
        first = cbf.counters.peek_flips()
        second = cbf.counters.peek_flips()
        assert first == second != []

    def test_flips_replay_onto_snapshot(self):
        """Applying drained flips to an old snapshot reproduces the
        current filter -- the core correctness property of DIRUPDATE."""
        cbf = summary(2048)
        for i in range(50):
            cbf.add(f"http://x{i}.com/a")
        peer = plain_copy(cbf)
        cbf.drain_delta()

        for i in range(50, 80):
            cbf.add(f"http://x{i}.com/a")
        for i in range(0, 20):
            cbf.remove(f"http://x{i}.com/a")
        peer.apply_flips(cbf.drain_delta().flips)
        assert peer == plain_copy(cbf)

    def test_shared_bit_not_flipped_while_still_referenced(self):
        # Two keys sharing a bit: removing one key must not emit a clear
        # flip for the shared bit.
        cbf = summary(32)
        keys = [f"k{i}" for i in range(10)]
        for key in keys:
            cbf.add(key)
        cbf.drain_delta()
        cbf.remove(keys[0])
        for idx, value in cbf.counters.peek_flips():
            if not value:
                assert cbf.counters.get(idx) == 0


class TestSaturation:
    def test_counter_saturates_and_sticks(self):
        cbf = summary(8, counter_width=2)  # max count 3
        # Hammer the same key so its counters exceed 3.
        for i in range(6):
            cbf.add("same-key")
        assert cbf.counters.saturation_events > 0
        # Paper rule: saturated counters stay at max through deletions,
        # so membership survives more removals than additions would
        # normally allow.
        for i in range(6):
            cbf.remove("same-key")
        assert cbf.may_contain("same-key")

    def test_four_bit_default(self):
        cbf = BloomSummary(16)
        assert cbf.counters.width == 4


class TestMemoryAccounting:
    def test_local_includes_counters(self):
        cbf = summary(8000, counter_width=4)
        assert cbf.remote_size_bytes() == 1000
        assert cbf.size_bytes() == 1000 + 4000

    def test_counter_width_changes_local_size_only(self):
        narrow = summary(8000, counter_width=2)
        wide = summary(8000, counter_width=8)
        assert narrow.remote_size_bytes() == wide.remote_size_bytes()
        assert narrow.size_bytes() < wide.size_bytes()


@given(
    st.lists(
        st.tuples(st.sampled_from([f"url{i}" for i in range(30)]), st.booleans()),
        max_size=200,
    )
)
@settings(max_examples=50, deadline=None)
def test_random_ops_match_multiset_model(ops):
    """Under random adds/removes, the filter never loses a present key,
    and the delta stream keeps a peer snapshot in sync."""
    cbf = summary(4096)
    peer = plain_copy(cbf)
    present: dict = {}
    for url, is_add in ops:
        if is_add:
            cbf.add(url)
            present[url] = present.get(url, 0) + 1
        elif present.get(url, 0) > 0:
            cbf.remove(url)
            present[url] -= 1
        # Periodically sync the peer copy.
        if len(cbf.counters.peek_flips()) > 16:
            peer.apply_flips(cbf.drain_delta().flips)
    for url, count in present.items():
        if count > 0:
            assert cbf.may_contain(url)
    peer.apply_flips(cbf.drain_delta().flips)
    assert peer == plain_copy(cbf)


class TestBatchOperations:
    def test_add_at_precomputed_positions_equals_add(self):
        url = "http://precomputed.org/x"
        direct = summary(2048)
        direct.add(url)
        via_positions = summary(2048)
        positions = via_positions.hash_family.hashes(
            url, via_positions.num_bits
        )
        via_positions.add_key(positions)
        assert plain_copy(via_positions) == plain_copy(direct)
        assert via_positions.counters.to_bytes() == direct.counters.to_bytes()


def reference_peek_flips(records):
    """The coalescing rule over an uncoalesced flip log, kept as the
    reference the incremental pending dict must match record for record:
    order of first occurrence, latest value, and nothing for a bit back
    at its last-shipped state."""
    final_value = {}
    first_value = {}
    order = []
    for index, value in records:
        if index not in final_value:
            order.append(index)
            first_value[index] = value
        final_value[index] = value
    return [
        (index, final_value[index])
        for index in order
        if final_value[index] != (not first_value[index])
    ]


class ReferenceCountingFilter:
    """Scalar saturating counters plus an uncoalesced flip log."""

    def __init__(self, num_bits, width):
        self.counts = [0] * num_bits
        self.top = (1 << width) - 1
        self.log = []
        self.saturated = 0

    def add_at(self, positions):
        for index in positions:
            if self.counts[index] == self.top:
                self.saturated += 1
                continue
            self.counts[index] += 1
            if self.counts[index] == 1:
                self.log.append((index, True))

    def remove_at(self, positions):
        """False (and nothing changed) when a counter would underflow."""
        trial = list(self.counts)
        cleared = []
        for index in positions:
            if trial[index] == self.top:
                continue
            if trial[index] == 0:
                return False
            trial[index] -= 1
            if trial[index] == 0:
                cleared.append((index, False))
        self.counts = trial
        self.log += cleared
        return True

    def drain(self):
        flips = reference_peek_flips(self.log)
        self.log = []
        return flips


NUM_BITS = 10

operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "drain"]),
        st.lists(st.integers(0, NUM_BITS - 1), min_size=1, max_size=4),
    ),
    max_size=120,
)


class TestSinglePassWritePath:
    @given(st.sampled_from([1, 2, 4, 8]), operations)
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_flip_log(self, width, ops):
        """Random add/remove/drain sequences on a tiny filter (duplicate
        positions, saturating counters, underflowing removes): the
        drained records equal the old rescanning algorithm's, in order,
        and ``pending_flip_count`` is the uncoalesced log length."""
        counters = CounterArray(NUM_BITS, width=width)
        ref = ReferenceCountingFilter(NUM_BITS, width)
        for op, positions in ops:
            if op == "add":
                counters.add_at(positions)
                ref.add_at(positions)
            elif op == "remove":
                if ref.remove_at(positions):
                    counters.remove_at(positions)
                else:
                    with pytest.raises(SummaryStateError):
                        counters.remove_at(positions)
            else:
                assert counters.drain_flips() == ref.drain()
            assert counters.pending_flip_count == len(ref.log)
            assert counters.peek_flips() == reference_peek_flips(ref.log)
            assert [counters.get(i) for i in range(NUM_BITS)] == ref.counts
            assert counters.bits.popcount == sum(1 for c in ref.counts if c)
        assert counters.saturation_events == ref.saturated
        assert counters.drain_flips() == ref.drain()

    def test_pending_count_is_uncoalesced(self):
        cbf = summary(1 << 16)
        cbf.add("http://a.com/x")
        cbf.remove("http://a.com/x")
        assert cbf.counters.peek_flips() == []
        assert cbf.pending_change_count() == 2 * len(
            set(cbf.key_of("http://a.com/x"))
        )

    def test_packet_fill_policy_fires_at_the_same_insert(self):
        # Churn through a small directory: evictions cancel earlier
        # flips, so only the uncoalesced count reaches the packet size
        # at the insert it did before flips were coalesced on the fly.
        cfg = SummaryConfig(kind="bloom", load_factor=4, counter_width=2)
        node = SummaryNode(cfg, 64 * 1024, doc_size=2048)
        policy = PacketFillUpdatePolicy(records=40)
        local = node.local
        ref = ReferenceCountingFilter(local.num_bits, 2)
        held = []
        fired = []
        for i in range(400):
            url = f"http://churn.example/{i % 90}"
            if url in held:
                continue
            node.on_insert(url)
            ref.add_at(local.key_of(url))
            held.append(url)
            if len(held) > 20:
                evicted = held.pop(0)
                node.on_evict(evicted)
                ref.remove_at(local.key_of(evicted))
            due = node.due_for_update(policy, float(i), len(held))
            assert due == (len(ref.log) >= policy.records)
            if due:
                fired.append(i)
                assert node.publish(float(i)).flips == ref.drain()
        assert len(fired) > 3

    def test_failed_remove_at_leaves_everything(self):
        cbf = CounterArray(16, width=2)
        cbf.add_at([1, 2, 2, 5])
        cbf.drain_flips()
        cbf.add_at([3, 7])
        cbf.remove_at([7])

        def state():
            return (
                cbf.to_bytes(),
                cbf.bits.to_bytes(),
                cbf.bits.popcount,
                cbf.peek_flips(),
                cbf.pending_flip_count,
            )

        before = state()
        cases = [
            ([1, 2, 16, 5], BitIndexError),  # bad index midway
            ([1, 2, 9], SummaryStateError),  # a zero counter
            ([1, 1, 5], SummaryStateError),  # a duplicate counted once
            ([2, 3, 3], SummaryStateError),  # ... after a 1 -> 0 move
        ]
        for positions, error in cases:
            with pytest.raises(error):
                cbf.remove_at(positions)
            assert state() == before
        # The journal was put back exactly: a later flip of bit 3
        # still coalesces against its first record.
        cbf.remove_at([3])
        assert cbf.peek_flips() == []
