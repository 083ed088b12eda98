"""The plain Bloom filter: the shipped form of a cache summary.

Its bits are what a proxy ships: ``ICP_OP_DIRUPDATE`` records set and
clear them, a DIGEST carries them whole, and peers hold them sliced into
a :class:`~repro.summaries.peers.PeerSummaries`.  Because a shipped copy
is only ever probed and patched (bits set or cleared by absolute index,
per the loss-tolerant update design of Section VI-A), the plain filter
carries no counters -- those live only in the owning proxy's
:class:`~repro.summaries.bloom.BloomSummary`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.bitarray import BitArray
from repro.core.hashing import Key, MD5HashFamily
from repro.errors import ConfigurationError

class BloomFilter:
    """A Bloom filter over a bit array of ``num_bits`` bits.

    Parameters
    ----------
    num_bits:
        Size of the bit vector (``BitArray_Size_InBits`` on the wire).
    hash_family:
        Object providing ``hashes(key, table_size) -> tuple[int, ...]``.
        Defaults to the paper's 4-function MD5-slice family.

    The filter answers :meth:`may_contain` with no false negatives (for
    keys actually inserted via :meth:`add` and never removed) and a false
    positive probability governed by the load factor; see
    :mod:`repro.core.bfmath`.
    """

    __slots__ = ("bits", "hash_family")

    def __init__(
        self,
        num_bits: int,
        hash_family: Optional[MD5HashFamily] = None,
    ) -> None:
        if num_bits < 1:
            raise ConfigurationError(f"num_bits must be >= 1, got {num_bits}")
        self.bits = BitArray(num_bits)
        self.hash_family = hash_family or MD5HashFamily()

    @classmethod
    def for_capacity(
        cls,
        expected_keys: int,
        load_factor: int = 8,
        hash_family: Optional[MD5HashFamily] = None,
    ) -> "BloomFilter":
        """Build a filter sized at ``load_factor`` bits per expected key.

        The paper's configurations use load factors 8, 16, and 32 with
        four hash functions (Section V-D).
        """
        if expected_keys < 1:
            raise ConfigurationError(
                f"expected_keys must be >= 1, got {expected_keys}"
            )
        if load_factor < 1:
            raise ConfigurationError(
                f"load_factor must be >= 1, got {load_factor}"
            )
        return cls(expected_keys * load_factor, hash_family=hash_family)

    @property
    def num_bits(self) -> int:
        """Size of the bit vector in bits."""
        return self.bits.size

    def positions(self, key: Key) -> Tuple[int, ...]:
        """Return the bit positions probed for *key*."""
        return self.hash_family.hashes(key, self.bits.size)

    def add(self, key: Key) -> List[int]:
        """Insert *key*; return the indices of bits that flipped 0 -> 1."""
        return self.bits.set_many(self.positions(key))

    def add_many(self, keys: Iterable[Key]) -> List[int]:
        """Insert every key in one batch; return all bits flipped 0 -> 1.

        The batch form of :meth:`add`: every key's positions are set via
        a single :meth:`~repro.core.bitarray.BitArray.set_many` sweep, so
        per-key popcount bookkeeping disappears from the hot path.  Used
        by rebuild/resync and batched trace replay.
        """
        positions = self.positions
        return self.bits.set_many(
            pos for key in keys for pos in positions(key)
        )

    def may_contain(self, key: Key) -> bool:
        """Return ``False`` if *key* is definitely absent, ``True`` if it may be present."""
        return all(self.bits.get(pos) for pos in self.positions(key))

    def __contains__(self, key: Key) -> bool:
        return self.may_contain(key)

    def apply_flips(self, flips: Iterable[Tuple[int, bool]]) -> int:
        """Apply ``(index, value)`` records; return how many bits changed.

        Records are absolute (set bit i to v), so replaying them is
        idempotent.  That is all they guarantee: a lost update leaves its
        bits wrong until another record names them, and an update
        delivered late overwrites newer records for the same bits.  A
        DIRUPDATE carries no sequence number, so neither is detected
        (ROADMAP item 12).
        """
        return self.bits.write_many(flips)

    def reset(self) -> None:
        """Clear the filter (e.g. when a failed neighbour recovers)."""
        self.bits.reset()

    def fill_ratio(self) -> float:
        """Fraction of bits set; the observable proxy for filter load."""
        return self.bits.fill_ratio

    def expected_false_positive_rate(self) -> float:
        """False-positive probability implied by the current fill ratio.

        For a filter with fill ratio ``p1`` probed with ``k`` hash
        functions, a random absent key passes all probes with probability
        ``p1**k``.
        """
        return self.bits.fill_ratio ** self.hash_family.num_functions

    def size_bytes(self) -> int:
        """Memory footprint of the bit vector, in bytes."""
        return self.bits.size_bytes()

    def to_bytes(self) -> bytes:
        """Serialize the bit vector (for whole-filter 'cache digest' updates)."""
        return self.bits.to_bytes()

    @classmethod
    def from_bytes(
        cls,
        num_bits: int,
        payload: bytes,
        hash_family: Optional[MD5HashFamily] = None,
    ) -> "BloomFilter":
        """Rebuild a filter from :meth:`to_bytes` output."""
        filt = cls(num_bits, hash_family=hash_family)
        filt.bits = BitArray.from_bytes(num_bits, payload)
        return filt

    def copy(self) -> "BloomFilter":
        """Return an independent copy sharing the same hash family."""
        clone = BloomFilter(self.bits.size, hash_family=self.hash_family)
        clone.bits = self.bits.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return (
            self.bits == other.bits
            and self.hash_family == other.hash_family
        )

    def __repr__(self) -> str:
        return (
            f"BloomFilter(num_bits={self.bits.size}, "
            f"fill_ratio={self.bits.fill_ratio:.4f}, "
            f"hash_family={self.hash_family!r})"
        )
