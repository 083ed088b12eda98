"""The counting Bloom filter: a proxy's local, deletion-capable summary.

This is the structure the paper introduced to the systems world
(Section V-C): alongside the bit array, the owning proxy keeps one small
counter per bit position recording how many cached documents hash to it.
Inserting a URL increments its counters; evicting it decrements them.
Only the 0 <-> 1 transitions flip bits in the public bit array, and each
flip is recorded so a delta update (``ICP_OP_DIRUPDATE``) can later be
assembled for peers.

An insert or evict is one pass over the key's k positions
(:meth:`~repro.core.bitarray.CounterArray.add_at` /
:meth:`~repro.core.bitarray.CounterArray.remove_at`): the public bits
*are* the counters' nonzero flags, so there is no second array to bring
into step.  Pending flips are coalesced as they are recorded -- one
entry per bit, holding its first flip -- so draining a delta reads each
changed bit once instead of rescanning every flip since the last
update.

The counters themselves never leave the proxy; peers receive only the bit
array (or bit-flip records).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bitarray import CounterArray
from repro.core.bloom import BloomFilter
from repro.core.hashing import Key, MD5HashFamily
from repro.errors import ConfigurationError

#: The paper's recommended counter width: "4 bits per count would be
#: amply sufficient."
DEFAULT_COUNTER_WIDTH = 4


class CountingBloomFilter:
    """A Bloom filter with per-bit saturating counters supporting deletion.

    :attr:`filter` is the plain filter peers are shipped; its bit array is
    :attr:`counters`' nonzero flags, so every insert and evict moves a
    counter and its public bit together and never touches the bit array
    directly.  Flips awaiting the next delta are held coalesced, one
    entry per changed bit, while :attr:`pending_flip_count` still counts
    every flip recorded.

    Parameters
    ----------
    num_bits:
        Size of the bit vector / counter array.
    hash_family:
        Hash family shared with the shipped plain filter.
    counter_width:
        Bits per counter (1, 2, 4, or 8).  4 is the paper's choice; the
        counter-width ablation benchmark sweeps the others.
    """

    __slots__ = (
        "filter", "counters", "_pending", "_records", "_keys_added"
    )

    def __init__(
        self,
        num_bits: int,
        hash_family: Optional[MD5HashFamily] = None,
        counter_width: int = DEFAULT_COUNTER_WIDTH,
    ) -> None:
        self.filter = BloomFilter(num_bits, hash_family=hash_family)
        self.counters = CounterArray(num_bits, width=counter_width)
        # The public bits are the counters' nonzero flags: one store,
        # written in the same pass that moves a counter.
        self.filter.bits = self.counters.bits
        #: Bit index -> the value of its first flip since the last
        #: :meth:`drain_flips`, in first-flip order; the bit's current
        #: value says whether that flip still stands.
        self._pending: Dict[int, bool] = {}
        #: Flips recorded since the last drain, before coalescing.
        self._records = 0
        self._keys_added = 0

    @classmethod
    def for_capacity(
        cls,
        expected_keys: int,
        load_factor: int = 8,
        hash_family: Optional[MD5HashFamily] = None,
        counter_width: int = DEFAULT_COUNTER_WIDTH,
    ) -> "CountingBloomFilter":
        """Build a filter sized at ``load_factor`` bits per expected key."""
        if expected_keys < 1:
            raise ConfigurationError(
                f"expected_keys must be >= 1, got {expected_keys}"
            )
        if load_factor < 1:
            raise ConfigurationError(
                f"load_factor must be >= 1, got {load_factor}"
            )
        return cls(
            expected_keys * load_factor,
            hash_family=hash_family,
            counter_width=counter_width,
        )

    @property
    def num_bits(self) -> int:
        """Size of the bit vector in bits."""
        return self.filter.num_bits

    @property
    def hash_family(self) -> MD5HashFamily:
        """The hash family probing this filter."""
        return self.filter.hash_family

    @property
    def keys_added(self) -> int:
        """Net number of keys currently represented (adds minus removes)."""
        return self._keys_added

    def add(self, key: Key) -> None:
        """Insert *key*, recording any 0 -> 1 bit flips for the next delta."""
        self.add_at(self.filter.positions(key))

    def add_at(self, positions: Sequence[int]) -> None:
        """Insert one key by its precomputed bit *positions*.

        One pass over the positions (:meth:`CounterArray.add_at`): each
        counter moves, a counter leaving zero sets its public bit, and
        that flip is recorded for the next delta.  The positions MUST
        come from this filter's own hash family and geometry (the
        summary's ``key_of``); anything else desynchronizes the filter
        from its peers' wire-spec positions.
        """
        self._records += self.counters.add_at(positions, self._pending)
        self._keys_added += 1

    def add_many(self, keys: Iterable[Key]) -> None:
        """Insert every key in one batch (the rebuild/resync fast path).

        Equivalent to calling :meth:`add` per key -- same counters, same
        bit flips, same pending-delta records.
        """
        keys = list(keys)
        positions_of = self.filter.positions
        add_at = self.counters.add_at
        pending = self._pending
        records = 0
        for key in keys:
            records += add_at(positions_of(key), pending)
        self._records += records
        self._keys_added += len(keys)

    def remove(self, key: Key) -> None:
        """Delete *key*, recording any 1 -> 0 bit flips for the next delta."""
        self.remove_at(self.filter.positions(key))

    def remove_at(self, positions: Sequence[int]) -> None:
        """Delete one key by its precomputed bit *positions*.

        The mirror of :meth:`add_at`, in one pass
        (:meth:`CounterArray.remove_at`).  Removing a key that was never
        added raises :class:`~repro.errors.SummaryStateError` (counter
        underflow) and an out-of-range position
        :class:`~repro.errors.BitIndexError`; either way counters, bits,
        popcount and pending flips are left as they were rather than
        silently corrupting the filter.
        """
        self._records += self.counters.remove_at(positions, self._pending)
        self._keys_added -= 1

    def may_contain(self, key: Key) -> bool:
        """Membership probe against the local bit array."""
        return self.filter.may_contain(key)

    def __contains__(self, key: Key) -> bool:
        return self.may_contain(key)

    @property
    def pending_flip_count(self) -> int:
        """Number of *uncoalesced* bit-flip records awaiting the next delta.

        Every 0 <-> 1 transition since the last drain counts, including
        ones that later cancel out: this is what
        :class:`~repro.summaries.PacketFillUpdatePolicy` fills a packet
        with.
        """
        return self._records

    def peek_flips(self) -> List[Tuple[int, bool]]:
        """Return the coalesced pending flips without clearing them.

        Records come in the order each bit first flipped since the last
        drain.  A bit that flipped several times is shipped with its
        current value, and one back at its last-shipped state (the
        opposite of its first flip) is not shipped at all -- exactly what
        a delta update message should carry.
        """
        return self.filter.bits.holding(self._pending.items())

    def drain_flips(self) -> List[Tuple[int, bool]]:
        """Return the coalesced pending flips and clear the pending list."""
        flips = self.peek_flips()
        self._pending.clear()
        self._records = 0
        return flips

    def snapshot(self) -> BloomFilter:
        """Return a plain-filter copy of the current bit array.

        This is what a whole-filter ('cache digest' style) update ships.
        """
        return self.filter.copy()

    def fill_ratio(self) -> float:
        """Fraction of bits set in the public bit array."""
        return self.filter.fill_ratio()

    def size_bytes(self) -> int:
        """Local footprint: bit array plus counters.

        Section V-F's extrapolation separates the two ("about 200 MB to
        represent all the summaries plus another 8 MB to represent its
        own counters"); :meth:`remote_size_bytes` gives the former per
        peer.
        """
        return self.filter.size_bytes() + self.counters.size_bytes()

    def remote_size_bytes(self) -> int:
        """Footprint of the shipped representation (bit array only)."""
        return self.filter.size_bytes()

    def __repr__(self) -> str:
        return (
            f"CountingBloomFilter(num_bits={self.num_bits}, "
            f"keys_added={self._keys_added}, "
            f"fill_ratio={self.fill_ratio():.4f}, "
            f"counter_width={self.counters.width})"
        )
