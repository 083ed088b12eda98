"""Packed bit arrays and small-counter arrays.

Two storage primitives back the summary data structures:

- :class:`BitArray` -- the bit vector a Bloom filter summary ships to its
  peers (Section V-C).
- :class:`CounterArray` -- the per-bit counters a proxy keeps locally so
  its own filter supports deletions.  The paper argues 4-bit counters
  suffice ("4 bits per count would be amply sufficient") and that a
  saturated counter should simply stick at its maximum; both behaviours
  are implemented here.  A counter array also owns the bit array of
  which counters are nonzero -- the public bits of a counting filter --
  and the journal of their flips; it moves a counter, its bit and the
  journal in the same pass.

A bit array packs eight bits per byte, in the process and on the wire.
A counter array holds one counter per byte in the process, so a counter
moves with one byte read and one byte write.  Its ``size_bytes()`` and
``to_bytes()`` are the paper's figure and payload, the counters packed
*width* bits each (two 4-bit counters per byte), which is what the memory
analysis of Table III counts -- as the exact directory's 16 bytes per key
is the paper's figure, not the process's.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import (
    BitIndexError,
    ConfigurationError,
    SummaryStateError,
)

try:
    _bit_count = int.bit_count  # Python >= 3.10: one CPython opcode
except AttributeError:  # pragma: no cover - exercised on 3.9 only
    def _bit_count(value: int) -> int:
        return bin(value).count("1")


class BitArray:
    """A fixed-size array of bits packed into a :class:`bytearray`."""

    __slots__ = ("_size", "_buf")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"BitArray size must be >= 1, got {size}")
        self._size = size
        self._buf = bytearray((size + 7) // 8)

    @classmethod
    def view(cls, buffer: bytearray, size: int) -> "BitArray":
        """An array of *size* bits reading and writing *buffer* in place.

        No copy is made: whoever owns *buffer* may keep writing it.
        :class:`CounterArray` publishes its nonzero flags this way, so a
        counting filter's public bits are one store, not a second copy
        kept in step.
        """
        if len(buffer) != (size + 7) // 8:
            raise ConfigurationError(
                f"buffer of {len(buffer)} bytes does not hold {size} bits"
            )
        array = cls(size)
        array._buf = buffer
        return array

    @property
    def size(self) -> int:
        """Number of bits in the array."""
        return self._size

    @property
    def popcount(self) -> int:
        """Number of bits currently set to 1.

        Counted on demand (one big-int ``bit_count``), so it is true
        however the buffer was written -- including through a
        :meth:`view`.
        """
        return _bit_count(int.from_bytes(self._buf, "little"))

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set to 1."""
        return self.popcount / self._size

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise BitIndexError(
                f"bit index {index} out of range [0, {self._size})"
            )

    def get(self, index: int) -> bool:
        """Return the value of bit *index*."""
        self._check_index(index)
        return bool(self._buf[index >> 3] & (1 << (index & 7)))

    def set(self, index: int, value: bool = True) -> bool:
        """Set bit *index* to *value*; return ``True`` if the bit changed."""
        self._check_index(index)
        byte_index = index >> 3
        mask = 1 << (index & 7)
        old = bool(self._buf[byte_index] & mask)
        if old == bool(value):
            return False
        if value:
            self._buf[byte_index] |= mask
        else:
            self._buf[byte_index] &= ~mask & 0xFF
        return True

    def clear(self, index: int) -> bool:
        """Clear bit *index*; return ``True`` if the bit changed."""
        return self.set(index, False)

    def set_many(self, indices: Iterable[int], value: bool = True) -> List[int]:
        """Set every bit in *indices* to *value*; return the changed ones.

        The batch form of :meth:`set`: one call per Bloom filter insert
        (k probes per key) instead of a call chain per bit.
        """
        buf = self._buf
        size = self._size
        changed: List[int] = []
        append = changed.append
        if value:
            for index in indices:
                if not 0 <= index < size:
                    raise BitIndexError(
                        f"bit index {index} out of range [0, {size})"
                    )
                byte_index = index >> 3
                mask = 1 << (index & 7)
                if not buf[byte_index] & mask:
                    buf[byte_index] |= mask
                    append(index)
        else:
            for index in indices:
                if not 0 <= index < size:
                    raise BitIndexError(
                        f"bit index {index} out of range [0, {size})"
                    )
                byte_index = index >> 3
                mask = 1 << (index & 7)
                if buf[byte_index] & mask:
                    buf[byte_index] &= ~mask & 0xFF
                    append(index)
        return changed

    def write_many(self, records: Iterable[Tuple[int, bool]]) -> int:
        """Write every ``(index, value)`` record in order; return how
        many writes changed a bit.

        Records are absolute, so when an index repeats the last record
        wins, exactly as if each had been applied with :meth:`set`.
        """
        buf = self._buf
        size = self._size
        changed = 0
        for index, value in records:
            if not 0 <= index < size:
                raise BitIndexError(
                    f"bit index {index} out of range [0, {size})"
                )
            byte_index = index >> 3
            mask = 1 << (index & 7)
            if value:
                if not buf[byte_index] & mask:
                    buf[byte_index] |= mask
                    changed += 1
            elif buf[byte_index] & mask:
                buf[byte_index] &= ~mask & 0xFF
                changed += 1
        return changed

    def reset(self) -> None:
        """Clear every bit (in place, so a :meth:`view` stays attached)."""
        self._buf[:] = bytes(len(self._buf))

    def iter_set_bits(self) -> Iterator[int]:
        """Yield the indices of all set bits in increasing order."""
        for byte_index, byte in enumerate(self._buf):
            if not byte:
                continue
            base = byte_index << 3
            while byte:
                low = byte & -byte
                yield base + low.bit_length() - 1
                byte ^= low

    def to_bytes(self) -> bytes:
        """Return the packed bit payload (little-endian bit order per byte)."""
        return bytes(self._buf)

    @classmethod
    def from_bytes(cls, size: int, payload: bytes) -> "BitArray":
        """Rebuild an array of *size* bits from :meth:`to_bytes` output."""
        array = cls(size)
        expected = (size + 7) // 8
        if len(payload) != expected:
            raise ConfigurationError(
                f"payload of {len(payload)} bytes does not match "
                f"{size} bits ({expected} bytes expected)"
            )
        array._buf = bytearray(payload)
        # Mask stray bits beyond `size` in the final byte so popcount and
        # equality are well defined.
        tail_bits = size & 7
        if tail_bits:
            array._buf[-1] &= (1 << tail_bits) - 1
        return array

    def copy(self) -> "BitArray":
        """Return an independent copy of this array."""
        clone = BitArray(self._size)
        clone._buf = bytearray(self._buf)
        return clone

    def size_bytes(self) -> int:
        """Memory footprint of the packed payload, in bytes."""
        return len(self._buf)

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self._size == other._size and self._buf == other._buf

    def __repr__(self) -> str:
        return f"BitArray(size={self._size}, popcount={self.popcount})"


class CounterArray:
    """A fixed-size array of saturating counters, each *width* bits wide.

    The paper's counting Bloom filter keeps one counter per bit position.
    A counter that reaches its maximum value sticks there: "if the count
    ever exceeds 15, we can simply let it stay at 15".  Decrementing a
    saturated counter is therefore a no-op, trading an astronomically
    unlikely false negative for bounded memory.

    The process holds one counter per byte, so moving a counter is one
    byte read and one byte write, with no shift or mask.  The width sets
    the saturation ceiling and what :meth:`size_bytes` and
    :meth:`to_bytes` report: the counters packed *width* bits each, the
    footprint the paper's memory analysis counts.

    The array also owns :attr:`bits`, whose bit *i* is set exactly when
    counter *i* is nonzero -- the public bit array of a counting Bloom
    filter -- and the journal of those bits' flips since the last
    :meth:`drain_flips`, which a delta update ships.  :meth:`add_at` and
    :meth:`remove_at` are the one place a held counter moves: each walks a
    key's positions once, checking each index, moving its counter,
    writing its bit on a 0 <-> 1 transition and journaling the flip.
    The journal is coalesced as it is written -- one entry per bit,
    holding its first flip -- so a drain reads each changed bit once,
    while :attr:`pending_flip_count` still counts every flip.
    :meth:`counted` builds an array already holding a set of keys, with
    nothing journaled.
    """

    __slots__ = (
        "_size", "_width", "_max", "_buf", "_flags", "_saturated", "bits",
        "_pending", "pending_flip_count",
    )

    #: Widths that pack evenly into bytes; arbitrary widths would
    #: complicate :meth:`to_bytes` for no experimental benefit.
    SUPPORTED_WIDTHS = (1, 2, 4, 8)

    def __init__(self, size: int, width: int = 4) -> None:
        if size < 1:
            raise ConfigurationError(f"CounterArray size must be >= 1, got {size}")
        if width not in self.SUPPORTED_WIDTHS:
            raise ConfigurationError(
                f"counter width must be one of {self.SUPPORTED_WIDTHS}, got {width}"
            )
        self._size = size
        self._width = width
        self._max = (1 << width) - 1
        #: Counter *i* is byte *i*.
        self._buf = bytearray(size)
        self._flags = bytearray((size + 7) // 8)
        self._saturated = 0
        #: Which counters are nonzero, as a bit array over the flags
        #: this array writes; read it, never write it.
        self.bits = BitArray.view(self._flags, size)
        #: Bit index -> the value of its first flip since the last
        #: drain, in first-flip order; the counter's current value says
        #: whether that flip still stands.
        self._pending: Dict[int, bool] = {}
        #: Flips journaled since the last drain, before coalescing:
        #: every 0 <-> 1 transition counts, including ones that later
        #: cancel out.  This is what a packet-fill update policy
        #: (:class:`~repro.summaries.PacketFillUpdatePolicy`) fills a
        #: packet with.
        self.pending_flip_count = 0

    @property
    def size(self) -> int:
        """Number of counters."""
        return self._size

    @property
    def width(self) -> int:
        """Width of each counter in bits."""
        return self._width

    @property
    def max_value(self) -> int:
        """Saturation value (``2**width - 1``)."""
        return self._max

    @property
    def saturation_events(self) -> int:
        """How many increments have hit the saturation ceiling.

        A nonzero value means the filter may eventually admit a false
        negative after enough deletions; the paper argues the probability
        is negligible for 4-bit counters, and this counter lets tests and
        benchmarks check that claim empirically.
        """
        return self._saturated

    def _out_of_range(self, index: int) -> BitIndexError:
        return BitIndexError(
            f"counter index {index} out of range [0, {self._size})"
        )

    @classmethod
    def counted(
        cls, size: int, keys: Iterable[Iterable[int]], width: int = 4
    ) -> "CounterArray":
        """An array of *size* counters with every key of *keys* counted in.

        Its counters, bits and :attr:`saturation_events` are what
        :meth:`add_at` on each key leaves, but its journal stays empty:
        no peer holds anything of the new array yet.  One tally of every
        position, then one write per counter and bit it reaches.  An
        out-of-range position raises :class:`~repro.errors.BitIndexError`.
        """
        array = cls(size, width)
        tally = Counter(index for key in keys for index in key)
        if tally and (min(tally) < 0 or max(tally) >= size):
            raise BitIndexError(f"counter index out of range [0, {size})")
        counts, flags, top = array._buf, array._flags, array._max
        for index, count in tally.items():
            counts[index] = count if count < top else top
            flags[index >> 3] |= 1 << (index & 7)
        # Each increment a counter at the ceiling did not take.
        array._saturated = sum(tally.values()) - sum(counts)
        return array

    def get(self, index: int) -> int:
        """Return the value of counter *index*."""
        if not 0 <= index < self._size:
            raise self._out_of_range(index)
        return self._buf[index]

    def add_at(self, indices: Sequence[int]) -> None:
        """Count one key in at *indices*.

        One pass: each counter moves up one, saturating at
        :attr:`max_value` (a counter already at the ceiling stays there
        and counts one saturation event).  A counter leaving zero sets
        its bit in :attr:`bits` and journals the flip, as
        ``index -> True`` unless *index* already has an entry since the
        last drain (the first one is kept).  An index listed twice
        counts twice -- two of a key's hash functions may collide.

        All or nothing: an out-of-range index raises
        :class:`~repro.errors.BitIndexError` after putting back every
        counter, bit and journal entry this call changed, and neither
        :attr:`pending_flip_count` nor :attr:`saturation_events` moves.
        """
        size = self._size
        counts = self._buf
        flags = self._flags
        pending = self._pending
        top = self._max
        raised = 0
        journaled = 0
        # The indices found at the ceiling, in walk order: the steps
        # that moved nothing, which an undo skips.
        stuck: List[int] = []
        for index in indices:
            if not 0 <= index < size:
                break
            value = counts[index]
            if value == top:
                stuck.append(index)
            else:
                counts[index] = value + 1
                if not value:
                    flags[index >> 3] |= 1 << (index & 7)
                    raised += 1
                    if index not in pending:
                        pending[index] = True
                        journaled += 1
        else:
            if stuck:
                self._saturated += len(stuck)
            self.pending_flip_count += raised
            return
        # The walk stopped at the first out-of-range index, so that
        # value's first position is where it stopped.  A counter stays
        # at the ceiling once there, so the newest entry of `stuck`
        # names the latest skipped step not yet undone.
        for undone in reversed(indices[:indices.index(index)]):
            if stuck and stuck[-1] == undone:
                stuck.pop()
                continue
            value = counts[undone] - 1
            counts[undone] = value
            if not value:
                flags[undone >> 3] &= ~(1 << (undone & 7))
        for _ in range(journaled):
            pending.popitem()
        raise self._out_of_range(index)

    def remove_at(self, indices: Sequence[int]) -> None:
        """Count one key out at *indices*.

        The mirror of :meth:`add_at`: a saturated counter is left
        untouched (the paper's stick-at-max rule), and a counter reaching
        zero clears its bit and journals ``index -> False`` unless
        *index* already has an entry.  All or nothing: an out-of-range
        index raises :class:`~repro.errors.BitIndexError`, and a counter
        that would drop below zero raises
        :class:`~repro.errors.SummaryStateError` (the caller tried to
        delete a key that was never inserted, or listed an index more
        often than it was counted), each after putting back every
        counter, bit and journal entry this call changed.
        """
        size = self._size
        counts = self._buf
        flags = self._flags
        pending = self._pending
        top = self._max
        cleared = 0
        journaled = 0
        # An explicit iterator, so that on failure what is left of it
        # tells how many indices were already counted out.
        walk = iter(indices)
        for index in walk:
            if not 0 <= index < size:
                break
            value = counts[index]
            if value == top:
                continue
            if not value:
                break
            counts[index] = value - 1
            if value == 1:
                flags[index >> 3] &= ~(1 << (index & 7))
                cleared += 1
                if index not in pending:
                    pending[index] = False
                    journaled += 1
        else:
            self.pending_flip_count += cleared
            return
        done = len(indices) - 1 - sum(1 for _ in walk)
        # A decrement never leaves a counter at the ceiling, so one
        # found there was skipped, not moved.
        for undone in reversed(indices[:done]):
            value = counts[undone]
            if value != top:
                counts[undone] = value + 1
                if not value:
                    flags[undone >> 3] |= 1 << (undone & 7)
        for _ in range(journaled):
            pending.popitem()
        if not 0 <= index < size:
            raise self._out_of_range(index)
        raise SummaryStateError(
            f"counter {index} underflow: decrement of a zero counter"
        )

    def peek_flips(self) -> List[Tuple[int, bool]]:
        """The coalesced journal, without emptying it.

        Records come in the order each bit first flipped since the last
        drain.  A bit that flipped several times is shipped with its
        current value, and one back at its last-shipped state (the
        opposite of its first flip) is not shipped at all -- exactly
        what a delta update message should carry.
        """
        counts = self._buf
        held: List[Tuple[int, bool]] = []
        for record in self._pending.items():
            index, value = record
            if (counts[index] != 0) == value:
                held.append(record)
        return held

    def drain_flips(self) -> List[Tuple[int, bool]]:
        """Return :meth:`peek_flips` and empty the journal."""
        flips = self.peek_flips()
        self._pending.clear()
        self.pending_flip_count = 0
        return flips

    def size_bytes(self) -> int:
        """Footprint of the counters packed *width* bits each, in bytes.

        The paper's figure (Table III's local counters), as
        :class:`~repro.summaries.keyset.KeySetSummary` reports 16 bytes
        per MD5 key; the process itself holds one byte per counter.
        """
        return (self._size * self._width + 7) // 8

    def to_bytes(self) -> bytes:
        """The counters packed *width* bits each, :meth:`size_bytes` long.

        Counter *i* sits in byte ``i * width // 8``, the lowest-numbered
        counter of a byte in its low bits.  Packed on each call, from
        one stripe of every ``8 // width``-th counter per slot: a stripe
        read as one little-endian integer and shifted by the slot's bit
        offset moves each counter within its own byte, since a counter
        never exceeds ``2**width - 1``.
        """
        per_byte = 8 // self._width
        counts = bytes(self._buf) + bytes(-self._size % per_byte)
        packed = 0
        for slot in range(per_byte):
            stripe = int.from_bytes(counts[slot::per_byte], "little")
            packed |= stripe << (slot * self._width)
        return packed.to_bytes(len(counts) // per_byte, "little")

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return (
            f"CounterArray(size={self._size}, width={self._width}, "
            f"saturation_events={self._saturated})"
        )
