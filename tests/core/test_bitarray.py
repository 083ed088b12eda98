"""Tests for the packed bit and counter arrays."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitarray import BitArray, CounterArray
from repro.errors import ConfigurationError


class TestBitArray:
    def test_starts_all_zero(self):
        bits = BitArray(100)
        assert bits.popcount == 0
        assert not any(bits.get(i) for i in range(100))

    def test_set_and_get(self):
        bits = BitArray(16)
        assert bits.set(3) is True
        assert bits.get(3)
        assert bits.popcount == 1

    def test_set_same_value_reports_no_change(self):
        bits = BitArray(16)
        bits.set(3)
        assert bits.set(3) is False
        assert bits.popcount == 1

    def test_clear(self):
        bits = BitArray(16)
        bits.set(3)
        assert bits.clear(3) is True
        assert not bits.get(3)
        assert bits.popcount == 0
        assert bits.clear(3) is False

    def test_fill_ratio(self):
        bits = BitArray(10)
        for i in range(5):
            bits.set(i)
        assert bits.fill_ratio == pytest.approx(0.5)

    def test_index_bounds(self):
        bits = BitArray(8)
        with pytest.raises(IndexError):
            bits.get(8)
        with pytest.raises(IndexError):
            bits.set(-1)

    def test_iter_set_bits(self):
        bits = BitArray(64)
        for i in (0, 7, 8, 33, 63):
            bits.set(i)
        assert list(bits.iter_set_bits()) == [0, 7, 8, 33, 63]

    def test_roundtrip_bytes(self):
        bits = BitArray(37)
        for i in (0, 5, 19, 36):
            bits.set(i)
        clone = BitArray.from_bytes(37, bits.to_bytes())
        assert clone == bits
        assert clone.popcount == 4

    def test_from_bytes_masks_tail(self):
        # Stray bits beyond `size` must be masked out.
        clone = BitArray.from_bytes(4, bytes([0xFF]))
        assert clone.popcount == 4
        assert [i for i in range(4) if clone.get(i)] == [0, 1, 2, 3]

    def test_from_bytes_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            BitArray.from_bytes(16, b"\x00")

    def test_reset(self):
        bits = BitArray(32)
        bits.set(1)
        bits.set(30)
        bits.reset()
        assert bits.popcount == 0

    def test_copy_is_independent(self):
        bits = BitArray(8)
        bits.set(1)
        clone = bits.copy()
        clone.set(2)
        assert not bits.get(2)
        assert bits != clone

    def test_size_bytes(self):
        assert BitArray(1).size_bytes() == 1
        assert BitArray(8).size_bytes() == 1
        assert BitArray(9).size_bytes() == 2

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            BitArray(0)

    def test_set_many_reports_changed_indices(self):
        bits = BitArray(64)
        bits.set(5)
        changed = bits.set_many([3, 5, 9, 3])
        assert changed == [3, 9]  # 5 was already set; 3 repeats
        assert bits.popcount == 3

    def test_set_many_clear(self):
        bits = BitArray(64)
        bits.set_many([1, 2, 3])
        assert bits.set_many([2, 3, 4], value=False) == [2, 3]
        assert set(bits.iter_set_bits()) == {1}
        assert bits.popcount == 1

    def test_set_many_bounds(self):
        bits = BitArray(8)
        with pytest.raises(IndexError):
            bits.set_many([0, 8])
        with pytest.raises(IndexError):
            bits.set_many([-1], value=False)

    @given(
        st.lists(
            st.tuples(st.integers(0, 199), st.booleans()),
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_set_model(self, ops):
        bits = BitArray(200)
        reference = set()
        for index, value in ops:
            bits.set(index, value)
            if value:
                reference.add(index)
            else:
                reference.discard(index)
        assert set(bits.iter_set_bits()) == reference
        assert bits.popcount == len(reference)

    @given(
        st.lists(st.integers(0, 199), max_size=60),
        st.lists(st.integers(0, 199), max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_set_many_and_diff_match_set_model(self, added, removed):
        bits = BitArray(200)
        reference = set(added)
        changed_add = bits.set_many(added)
        assert len(changed_add) == len(reference)
        changed_clear = bits.set_many(removed, value=False)
        assert set(changed_clear) == reference & set(removed)
        reference -= set(removed)
        assert bits.popcount == len(reference)
        assert sorted(bits.iter_set_bits()) == sorted(reference)


def count_in(counters, indices):
    """Count a key in; the indices whose counter went 0 -> 1, in order."""
    counters.drain_flips()
    counters.add_at(indices)
    flips = counters.peek_flips()
    assert counters.pending_flip_count == len(flips)
    assert all(value for _index, value in flips)
    return [index for index, _value in flips]


def count_out(counters, indices):
    """Count a key out; the indices whose counter went 1 -> 0, in order."""
    counters.drain_flips()
    counters.remove_at(indices)
    flips = counters.peek_flips()
    assert counters.pending_flip_count == len(flips)
    assert not any(value for _index, value in flips)
    return [index for index, _value in flips]


class TestCounterArray:
    def test_starts_zero(self):
        counters = CounterArray(10)
        assert all(counters.get(i) == 0 for i in range(10))

    def test_increment_and_decrement(self):
        counters = CounterArray(10)
        assert count_in(counters, [3]) == [3]  # went 0 -> 1
        assert count_in(counters, [3]) == []
        assert counters.get(3) == 2
        assert count_out(counters, [3]) == []
        assert count_out(counters, [3]) == [3]  # went 1 -> 0
        assert counters.get(3) == 0

    def test_underflow_raises(self):
        counters = CounterArray(4)
        with pytest.raises(ValueError):
            count_out(counters, [0])

    def test_saturation_sticks_at_max(self):
        counters = CounterArray(4, width=2)  # max value 3
        for _ in range(5):
            count_in(counters, [1])
        assert counters.get(1) == 3
        assert counters.saturation_events == 2
        # The paper's rule: a saturated counter is never decremented.
        assert count_out(counters, [1]) == []
        assert counters.get(1) == 3

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_all_supported_widths(self, width):
        counters = CounterArray(20, width=width)
        top = counters.max_value
        assert top == (1 << width) - 1
        for _ in range(top):
            count_in(counters, [7])
        assert counters.get(7) == top

    def test_neighbours_do_not_interfere(self):
        # Two 4-bit counters share a byte; mutating one must not leak.
        counters = CounterArray(10, width=4)
        count_in(counters, [4, 5, 5])
        assert counters.get(4) == 1
        assert counters.get(5) == 2
        count_out(counters, [5])
        assert counters.get(4) == 1

    def test_nonzero_indices(self):
        counters = CounterArray(16)
        count_in(counters, [2, 9])
        assert list(counters.bits.iter_set_bits()) == [2, 9]

    def test_duplicate_index_counts_twice_but_reports_once(self):
        # Two of a key's hash functions may land on one position.
        counters = CounterArray(8)
        assert count_in(counters, [5, 5, 2]) == [5, 2]
        assert counters.get(5) == 2
        assert count_out(counters, [5, 5, 2]) == [5, 2]
        assert list(counters.bits.iter_set_bits()) == []

    def test_bad_increment_moves_no_counter(self):
        counters = CounterArray(8)
        with pytest.raises(IndexError):
            count_in(counters, [1, 2, 8])
        assert list(counters.bits.iter_set_bits()) == []

    @pytest.mark.parametrize("bad", [[1, 2, 3], [1, 2, 2], [1, 2, 8]])
    def test_bad_decrement_moves_no_counter(self, bad):
        # 3 was never counted, 2 only once, 8 is out of range: the
        # counters before the offending index must be put back.
        counters = CounterArray(8)
        counters.add_at([6])
        counters.remove_at([6])  # a journal entry for a bit back at 0
        counters.add_at([1, 1, 2])
        before = counters.to_bytes()
        bits = counters.bits.copy()
        journal = (counters.peek_flips(), counters.pending_flip_count)
        with pytest.raises((ValueError, IndexError)):
            counters.remove_at(bad)
        assert counters.to_bytes() == before
        assert counters.bits == bits
        assert (counters.peek_flips(), counters.pending_flip_count) == journal

    def test_size_bytes_packs_nibbles(self):
        assert CounterArray(10, width=4).size_bytes() == 5
        assert CounterArray(10, width=8).size_bytes() == 10
        assert CounterArray(10, width=1).size_bytes() == 2

    def test_rejects_unsupported_width(self):
        with pytest.raises(ConfigurationError):
            CounterArray(10, width=3)

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            CounterArray(0)

    def test_index_bounds(self):
        counters = CounterArray(8)
        with pytest.raises(IndexError):
            counters.get(8)

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.integers(0, 11), min_size=1, max_size=4),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_counter_model(self, ops):
        """``add_at`` / ``remove_at`` against the scalar
        rules applied one index at a time, for every width, with
        duplicate indices inside a batch and counters at the ceiling."""
        for width in CounterArray.SUPPORTED_WIDTHS:
            self.check_against_scalar_reference(width, ops)

    @staticmethod
    def check_against_scalar_reference(width, ops):
        counters = CounterArray(12, width=width)
        top = counters.max_value
        reference = [0] * 12
        saturated = 0
        for is_increment, batch in ops:
            if is_increment:
                raised = []
                for index in batch:
                    if reference[index] == top:
                        saturated += 1
                        continue
                    reference[index] += 1
                    if reference[index] == 1:
                        raised.append(index)
                assert count_in(counters, batch) == raised
                continue
            trial = list(reference)
            cleared = []
            for index in batch:
                if trial[index] == top:
                    continue
                if trial[index] == 0:
                    trial = None
                    break
                trial[index] -= 1
                if trial[index] == 0:
                    cleared.append(index)
            if trial is None:
                with pytest.raises(ValueError):
                    count_out(counters, batch)
            else:
                assert count_out(counters, batch) == cleared
                reference = trial
        assert [counters.get(i) for i in range(12)] == reference
        assert counters.saturation_events == saturated
        assert list(counters.bits.iter_set_bits()) == [
            i for i, value in enumerate(reference) if value
        ]


class CounterModel:
    """The counter array's contract as a dict of ints, one step at a time.

    A step that fails -- an index outside ``[0, size)`` or a count
    below zero -- leaves the model as it was.
    """

    def __init__(self, size, width):
        self.size = size
        self.width = width
        self.top = (1 << width) - 1
        self.counts = {}
        self.first_flips = {}
        self.flips = 0
        self.saturated = 0

    def step(self, increment, indices):
        counts = dict(self.counts)
        first_flips = dict(self.first_flips)
        flips = saturated = 0
        for index in indices:
            if not 0 <= index < self.size:
                return IndexError
            value = counts.get(index, 0)
            if value == self.top:
                saturated += 1 if increment else 0
                continue
            if not increment and not value:
                return ValueError
            counts[index] = value + 1 if increment else value - 1
            if value == (0 if increment else 1):  # a 0 <-> 1 transition
                flips += 1
                first_flips.setdefault(index, increment)
        self.counts, self.first_flips = counts, first_flips
        self.flips += flips
        self.saturated += saturated
        return None

    def drain(self):
        held = self.held()
        self.first_flips = {}
        self.flips = 0
        return held

    def held(self):
        return [
            (index, value)
            for index, value in self.first_flips.items()
            if (self.counts.get(index, 0) != 0) == value
        ]

    def packed(self):
        """Counter *i* at bit ``i * width`` of a little-endian payload."""
        out = bytearray((self.size * self.width + 7) // 8)
        for index, value in self.counts.items():
            bit = index * self.width
            out[bit // 8] |= value << (bit % 8)
        return bytes(out)


def observed(counters):
    """Everything a caller can read off a counter array."""
    return (
        [counters.get(i) for i in range(counters.size)],
        list(counters.bits.iter_set_bits()),
        counters.peek_flips(),
        counters.pending_flip_count,
        counters.saturation_events,
        counters.to_bytes(),
    )


def expected(model):
    return (
        [model.counts.get(i, 0) for i in range(model.size)],
        sorted(i for i, value in model.counts.items() if value),
        model.held(),
        model.flips,
        model.saturated,
        model.packed(),
    )


#: 13 counters: no width packs them into whole bytes but 8.
MODEL_SIZE = 13


class TestCounterArrayModel:
    @given(
        st.sampled_from(CounterArray.SUPPORTED_WIDTHS),
        st.lists(
            st.tuples(
                st.sampled_from(["add", "add", "remove", "drain"]),
                st.lists(st.integers(-2, MODEL_SIZE + 1), max_size=6),
            ),
            max_size=80,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_step_matches_the_model(self, width, steps):
        counters = CounterArray(MODEL_SIZE, width=width)
        model = CounterModel(MODEL_SIZE, width)
        for action, indices in steps:
            if action == "drain":
                assert counters.drain_flips() == model.drain()
            else:
                increment = action == "add"
                failure = model.step(increment, indices)
                move = counters.add_at if increment else counters.remove_at
                if failure is None:
                    move(indices)
                else:
                    with pytest.raises(failure):
                        move(indices)
            assert observed(counters) == expected(model), (action, indices)
        assert counters.size_bytes() == len(model.packed())

    @pytest.mark.parametrize("width", CounterArray.SUPPORTED_WIDTHS)
    @pytest.mark.parametrize(
        "bad", [[5, 3, 3, 5, 99], [3, 5, 3, -1], [4, 4, 3, 4, 4, 13]]
    )
    def test_saturated_index_before_a_bad_one_moves_nothing(self, width, bad):
        # Counter 3 sits at the ceiling with one saturation event and
        # counter 4 one below it, so the walk saturates 3 (and climbs 4
        # to the ceiling, then saturates it) before the bad index: the
        # undo must tell a skipped step from a moved one.
        counters = CounterArray(MODEL_SIZE, width=width)
        top = counters.max_value
        for _ in range(top + 1):
            counters.add_at([3])
        for _ in range(top - 1):
            counters.add_at([4])
        counters.drain_flips()
        counters.add_at([6])
        counters.remove_at([6])  # a journal entry for a bit back at 0
        before = observed(counters)
        assert before[4] == 1
        with pytest.raises(IndexError):
            counters.add_at(bad)
        assert observed(counters) == before
        with pytest.raises((IndexError, ValueError)):  # 5 is at zero
            counters.remove_at(bad)
        assert observed(counters) == before
