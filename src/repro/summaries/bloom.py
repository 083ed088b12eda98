"""The Bloom-filter summary: counting filter locally, plain bits at the peers.

This is the structure the paper introduced to the systems world
(Section V-C): alongside the bit array, the owning proxy keeps one small
counter per bit position recording how many cached documents hash to it.
Inserting a URL increments its counters; evicting it decrements them.
Only the 0 <-> 1 transitions flip bits in the public bit array, and each
flip is journaled so a delta update (``ICP_OP_DIRUPDATE``) can later be
assembled for peers.

The summary owns its hash family and one
:class:`~repro.core.bitarray.CounterArray`, which holds the counters,
the public bits (the counters' nonzero flags) and the flip journal: an
insert or evict is one pass over the key's k positions
(:meth:`~repro.core.bitarray.CounterArray.add_at` /
:meth:`~repro.core.bitarray.CounterArray.remove_at`), one byte read and
written per position.  The counters never leave the proxy; peers
receive only the bit array (or bit-flip records) and hold it as a plain
:class:`~repro.core.bloom.BloomFilter` or a slice of a
:class:`~repro.summaries.peers.PeerSummaries`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.core.bitarray import CounterArray
from repro.core.hashing import MD5HashFamily
from repro.errors import ConfigurationError
from repro.summaries.backend import (
    BitFlipDelta,
    Geometry,
    LocalSummary,
    SummaryConfig,
)


class BloomSummary(LocalSummary):
    """Local Bloom summary: a counting Bloom filter sized by load factor.

    Parameters
    ----------
    expected_documents:
        Sizing basis -- cache size / 8 KB in the paper's configurations
        (use :func:`~repro.summaries.backend.expected_documents_for_cache`
        for that calculation).  The filter has ``load_factor`` bits per
        expected document.
    config:
        Load factor, hash count, and counter width.
    """

    kind = "bloom"

    def __init__(
        self,
        expected_documents: int,
        config: Optional[SummaryConfig] = None,
    ) -> None:
        cfg = config or SummaryConfig()
        if cfg.kind != "bloom":
            raise ConfigurationError(
                f"BloomSummary requires kind='bloom', got {cfg.kind!r}"
            )
        if expected_documents < 1:
            raise ConfigurationError(
                f"expected_documents must be >= 1, got {expected_documents}"
            )
        self.config = cfg
        #: The hash family announced in DIRUPDATE/DIGEST headers.
        self.hash_family = MD5HashFamily(num_functions=cfg.num_hashes)
        #: Bit array size (``BitArray_Size_InBits`` on the wire).
        self.num_bits = expected_documents * cfg.load_factor
        #: One counter per bit, held one per byte; its nonzero flags
        #: (``counters.bits``) are the bits peers are shipped.
        self.counters = CounterArray(self.num_bits, width=cfg.counter_width)

    @property
    def geometry(self) -> Geometry:
        return (self.num_bits, self.hash_family.spec())

    def add_key(self, key: Sequence[int]) -> None:
        self.counters.add_at(key)

    def remove_key(self, key: Sequence[int]) -> None:
        self.counters.remove_at(key)

    def key_writers(
        self,
    ) -> Tuple[Callable[[Sequence[int]], None], Callable[[Sequence[int]], None]]:
        # The counter array's own methods: the summary's frame goes.
        return self.counters.add_at, self.counters.remove_at

    def may_contain(self, url: str) -> bool:
        get = self.counters.bits.get
        return all(get(position) for position in self.key_of(url))

    def key_of(self, url: str) -> Tuple[int, ...]:
        return self.hash_family.hashes(url, self.num_bits)

    def drain_delta(self) -> BitFlipDelta:
        return BitFlipDelta(flips=self.counters.drain_flips())

    def pending_change_count(self) -> int:
        return self.counters.pending_flip_count

    def export(self) -> BitFlipDelta:
        held = self.counters.bits.iter_set_bits()
        return BitFlipDelta(flips=[(index, True) for index in held])

    def overloaded(self, num_documents: int, factor: float) -> bool:
        """Cache outran the geometry: documents exceed capacity x *factor*.

        The filter was sized for ``num_bits / load_factor`` documents;
        holding many more degrades the effective load factor -- and with
        it the false-hit rate at every peer.
        """
        expected = self.num_bits // self.config.load_factor
        return num_documents > expected * factor

    def rebuild(self, urls: Iterable[str]) -> None:
        """Rebuild at double the bits from the live directory.

        Pending flips are discarded: a delta cannot describe a geometry
        change, so peers must resync from a whole-filter digest.  A URL
        whose memo line is still held (its key was derived on insert)
        gets its new positions from the line's bit stream with no MD5;
        one whose line aged out of the memo's LRU costs one MD5.
        """
        num_bits = self.num_bits * 2
        counters = CounterArray(num_bits, width=self.config.counter_width)
        hashes = self.hash_family.hashes
        add_at = counters.add_at
        for url in urls:
            add_at(hashes(url, num_bits))
        counters.drain_flips()
        self.num_bits = num_bits
        self.counters = counters

    def fill_ratio(self) -> float:
        return self.counters.bits.fill_ratio

    def size_bytes(self) -> int:
        """Local footprint as the paper counts it: bit array plus
        counters packed ``counter_width`` bits each.

        Section V-F's extrapolation separates the two ("about 200 MB to
        represent all the summaries plus another 8 MB to represent its
        own counters"); :meth:`remote_size_bytes` gives the former per
        peer.  The process itself holds ``num_bits`` bytes of counters,
        one per byte (:class:`~repro.core.bitarray.CounterArray`).
        """
        return self.remote_size_bytes() + self.counters.size_bytes()

    def remote_size_bytes(self) -> int:
        """Footprint of the shipped representation (bit array only)."""
        return self.counters.bits.size_bytes()
