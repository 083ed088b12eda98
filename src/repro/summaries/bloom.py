"""The Bloom-filter summary: counting filter locally, plain bits at the peers."""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

from repro.core.counting_bloom import CountingBloomFilter
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
        for that calculation).
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
        family = MD5HashFamily(num_functions=cfg.num_hashes)
        self.config = cfg
        self._cbf = CountingBloomFilter.for_capacity(
            expected_documents,
            load_factor=cfg.load_factor,
            hash_family=family,
            counter_width=cfg.counter_width,
        )

    @property
    def num_bits(self) -> int:
        """Bit array size (``BitArray_Size_InBits`` on the wire)."""
        return self._cbf.num_bits

    @property
    def counting_filter(self) -> CountingBloomFilter:
        """The underlying counting filter (for protocol integration)."""
        return self._cbf

    @property
    def hash_family(self) -> MD5HashFamily:
        """The hash family announced in DIRUPDATE/DIGEST headers."""
        return self._cbf.hash_family

    @property
    def geometry(self) -> Geometry:
        return (self._cbf.num_bits, self._cbf.hash_family.spec())

    def add_key(self, key: Sequence[int]) -> None:
        self._cbf.add_at(key)

    def remove_key(self, key: Sequence[int]) -> None:
        self._cbf.remove_at(key)

    def key_writers(
        self,
    ) -> Tuple[Callable[[Sequence[int]], None], Callable[[Sequence[int]], None]]:
        # The counting filter's own methods: the summary's frame goes.
        return self._cbf.add_at, self._cbf.remove_at

    def may_contain(self, url: str) -> bool:
        return self._cbf.may_contain(url)

    def key_of(self, url: str) -> Tuple[int, ...]:
        return self._cbf.filter.positions(url)

    def drain_delta(self) -> BitFlipDelta:
        return BitFlipDelta(flips=self._cbf.drain_flips())

    def pending_change_count(self) -> int:
        return self._cbf.pending_flip_count

    def export(self) -> BitFlipDelta:
        held = self._cbf.filter.bits.iter_set_bits()
        return BitFlipDelta(flips=[(index, True) for index in held])

    def overloaded(self, num_documents: int, factor: float) -> bool:
        """Cache outran the geometry: documents exceed capacity x *factor*.

        The filter was sized for ``num_bits / load_factor`` documents;
        holding many more degrades the effective load factor -- and with
        it the false-hit rate at every peer.
        """
        expected = self._cbf.num_bits // self.config.load_factor
        return num_documents > expected * factor

    def rebuild(self, urls: Iterable[str]) -> None:
        """Rebuild at double the bits from the live directory.

        Pending flips are discarded: a delta cannot describe a geometry
        change, so peers must resync from a whole-filter digest.  A URL
        whose memo line is still held (its key was derived on insert)
        gets its new positions from the line's bit stream with no MD5;
        one whose line aged out of the memo's LRU costs one MD5.
        """
        rebuilt = CountingBloomFilter(
            self._cbf.num_bits * 2,
            hash_family=self._cbf.hash_family,
            counter_width=self.config.counter_width,
        )
        rebuilt.add_many(urls)
        rebuilt.drain_flips()
        self._cbf = rebuilt

    def fill_ratio(self) -> float:
        return self._cbf.fill_ratio()

    def size_bytes(self) -> int:
        return self._cbf.size_bytes()

    def remote_size_bytes(self) -> int:
        return self._cbf.remote_size_bytes()

    def __len__(self) -> int:
        return self._cbf.keys_added
