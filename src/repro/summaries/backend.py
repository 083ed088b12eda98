"""The summary backend: ABCs, sizing, and shared update bookkeeping.

A *summary* is the compact stand-in for a peer's cache directory.  The
cache's owner keeps a **local summary** (:class:`LocalSummary`) of each
representation, maintained as documents enter and leave, which emits
*deltas* (the changes since the last shipped update).  The copies peers
hold of it, patched with those deltas, live in one
:class:`~repro.summaries.peers.PeerSummaries` store per proxy.

Three representations are implemented, exactly the ones the paper
evaluates (Section V).  The two set representations are one class,
:class:`~repro.summaries.keyset.KeySetSummary`, told apart by the key
a URL is filed under (:data:`SET_KINDS`):

=====================  ==========================================  =======================
Representation         Local state                                 Shipped/peer state
=====================  ==========================================  =======================
``exact-directory``    counted set of 16-byte MD5 URL digests      set of digests
``server-name``        counted set of server names                 set of names
``bloom``              counting Bloom filter                       plain Bloom filter bits
=====================  ==========================================  =======================

Every consumer -- the Section V simulator, the wire protocol codec, and
the live asyncio proxy -- works against these ABCs; representation is
selected purely by :class:`SummaryConfig`.  Delta sizes for the
simulator follow the paper's Fig. 8 accounting and are computed in
:mod:`repro.sharing.messages`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Dict,
    List,
    Sequence,
    Tuple,
    Union,
    cast,
)

from repro.core.bitarray import CounterArray
from repro.core.hashing import MAX_NUM_FUNCTIONS, md5_digest
from repro.errors import ConfigurationError
from repro.summaries.policies import UpdatePolicy
from repro.urlutil import server_of

if TYPE_CHECKING:  # the Bloom module subclasses the ABCs below
    from repro.summaries.bloom import BloomSummary

#: A digest-set change record: a 16-byte MD5 digest (exact directory)
#: or a server name (server-name summary).
DigestKey = Union[bytes, str]

#: The set representations, each named once with the key it files a
#: URL under: its MD5 signature, or its server name.  Every other
#: representation is Bloom.
SET_KINDS: Dict[str, Callable[[str], DigestKey]] = {
    "exact-directory": md5_digest,
    "server-name": server_of,
}

#: Any delta a summary can emit: digest-set changes or bit flips.
SummaryDelta = Union["DigestDelta", "BitFlipDelta"]

#: The shape of a shipped copy.  For a Bloom summary it is what every
#: DIRUPDATE and DIGEST header announces, ``(num_bits, (Function_Num,
#: Function_Bits))``; digest-set copies have none, and theirs is ``()``.
Geometry = Tuple[Any, ...]

#: The paper's average-document-size divisor: "The average number of
#: documents is calculated by dividing the cache size by 8 K (the average
#: document size)."
AVERAGE_DOCUMENT_SIZE = 8 * 1024

#: The largest Bloom filter a summary grows to, and the largest
#: ``BitArray_Size_InBits`` a receiver accepts.  Section V-F's own
#: summary: an 8 GB cache of 8 KB pages at load factor 16 is 2**20
#: documents x 16 bits.  The wire header allows 2**31, which a
#: receiver would hold as 2**31 column slots (16 GiB) for one copy.
MAX_SUMMARY_BITS = 2**24


@dataclass(frozen=True)
class SummaryConfig:
    """Parameters selecting and sizing a summary representation.

    Attributes
    ----------
    kind:
        ``"exact-directory"``, ``"server-name"``, or ``"bloom"``.
    load_factor:
        Bits per expected document for Bloom summaries (8/16/32 in the
        paper).  Ignored by the other representations.
    num_hashes:
        Hash functions for Bloom summaries (the paper uses 4), at most
        :data:`~repro.core.hashing.MAX_NUM_FUNCTIONS`.
    counter_width:
        Counter bits for the local counting filter (the paper uses 4).
    """

    kind: str = "bloom"
    load_factor: int = 8
    num_hashes: int = 4
    counter_width: int = 4

    KINDS = (*SET_KINDS, "bloom")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ConfigurationError(
                f"unknown summary kind {self.kind!r}; expected one of {self.KINDS}"
            )
        if self.load_factor < 1:
            raise ConfigurationError(
                f"load_factor must be >= 1, got {self.load_factor}"
            )
        if not 1 <= self.num_hashes <= MAX_NUM_FUNCTIONS:
            raise ConfigurationError(
                f"num_hashes must be in [1, {MAX_NUM_FUNCTIONS}], "
                f"got {self.num_hashes}"
            )

    def label(self) -> str:
        """Human-readable label matching the paper's figure legends."""
        if self.kind == "bloom":
            return f"bloom-{self.load_factor}"
        return self.kind


#: CLI shorthand -> ``SummaryConfig.kind`` for ``--summary-repr`` flags.
SUMMARY_REPR_KINDS: Dict[str, str] = {
    "bloom": "bloom",
    "exact": "exact-directory",
    "server-name": "server-name",
}


def summary_config_for_repr(
    name: str, load_factor: int = 8
) -> SummaryConfig:
    """The :class:`SummaryConfig` for a ``--summary-repr`` CLI value."""
    return SummaryConfig(
        kind=SUMMARY_REPR_KINDS[name], load_factor=load_factor
    )


@dataclass
class DigestDelta:
    """Changes to a digest-set summary since the last shipped update."""

    added: Sequence[DigestKey] = field(default_factory=list)
    removed: Sequence[DigestKey] = field(default_factory=list)

    @property
    def change_count(self) -> int:
        """Number of 16-byte change records the update carries."""
        return len(self.added) + len(self.removed)

    def is_empty(self) -> bool:
        return not self.added and not self.removed


@dataclass
class BitFlipDelta:
    """Absolute bit set/clear records for a Bloom summary update."""

    flips: List[Tuple[int, bool]] = field(default_factory=list)

    @property
    def change_count(self) -> int:
        """Number of 32-bit flip records the update carries."""
        return len(self.flips)

    def is_empty(self) -> bool:
        return not self.flips


class LocalSummary(ABC):
    """The summary a proxy maintains for its own cache.

    Insert and evict work on the *summary key* (:meth:`key_of`): each
    representation writes them once, as :meth:`add_key` /
    :meth:`remove_key`, and the URL forms derive the key and delegate.
    A caller that already holds the key -- the simulators, which derive
    it once per URL per run for the probe -- skips the derivation.
    """

    #: The representation (a ``SummaryConfig.kind``).
    kind: str

    @property
    def geometry(self) -> Geometry:
        """The shape of the copies peers hold (``()`` unless Bloom)."""
        return ()

    @abstractmethod
    def add_key(self, key: Any) -> None:
        """Record that the document filed under *key* entered the cache."""

    @abstractmethod
    def remove_key(self, key: Any) -> None:
        """Record that the document filed under *key* left the cache.

        Removing a key the summary does not hold raises
        :class:`~repro.errors.SummaryStateError` (or, for a Bloom
        position out of range, :class:`~repro.errors.BitIndexError`)
        before anything changes.
        """

    def key_writers(
        self,
    ) -> Tuple[Callable[[Any], None], Callable[[Any], None]]:
        """The callables that do :meth:`add_key` / :meth:`remove_key`'s
        work, for a caller that binds them once and writes keys in a
        hot loop (the Section V simulator's cache hooks).

        They stay valid until :meth:`SummaryNode.grow` doubles a Bloom
        filter, which the simulators never call.
        """
        return self.add_key, self.remove_key

    def add(self, url: str) -> None:
        """Record that *url* entered the cache."""
        self.add_key(self.key_of(url))

    def remove(self, url: str) -> None:
        """Record that *url* left the cache."""
        self.remove_key(self.key_of(url))

    @abstractmethod
    def may_contain(self, url: str) -> bool:
        """Probe the up-to-date local summary."""

    @abstractmethod
    def key_of(self, url: str) -> Any:
        """The key this summary files *url* under: its MD5 digest, its
        server name, or its bit positions in this filter's geometry.

        Deriving it is the expensive half of a probe or an update, so
        :class:`~repro.summaries.peers.PeerSummaries` takes it once per
        URL and answers for every peer from it, and the simulators hand
        the same key to :meth:`add_key` / :meth:`remove_key`.
        """

    @abstractmethod
    def drain_delta(self) -> SummaryDelta:
        """Return changes since the last drain and mark them shipped."""

    @abstractmethod
    def pending_change_count(self) -> int:
        """How many change records the next delta would carry."""

    @abstractmethod
    def export(self) -> SummaryDelta:
        """The whole summary as one delta: what turns an empty copy of
        :attr:`geometry` into a copy of the current directory."""

    @abstractmethod
    def size_bytes(self) -> int:
        """Local DRAM footprint (including any counters)."""

    @abstractmethod
    def remote_size_bytes(self) -> int:
        """DRAM footprint of the shipped representation at one peer."""

    def fill_ratio(self) -> float:
        """Fraction of summary capacity in use (0.0 when not meaningful)."""
        return 0.0


def expected_documents_for_cache(
    cache_size_bytes: int, doc_size: int = AVERAGE_DOCUMENT_SIZE
) -> int:
    """Expected document count for a cache: size / average document size.

    The paper's rule divides by 8 KB; pass a workload-derived *doc_size*
    (e.g. the trace's mean cacheable document size) when the workload's
    average differs, otherwise the filter is mis-sized and the false-hit
    ratio drifts from the nominal load factor's.
    """
    if cache_size_bytes < 1:
        raise ConfigurationError(
            f"cache_size_bytes must be >= 1, got {cache_size_bytes}"
        )
    if doc_size < 1:
        raise ConfigurationError(f"doc_size must be >= 1, got {doc_size}")
    return max(1, cache_size_bytes // doc_size)


def make_local_summary(
    config: SummaryConfig,
    cache_size_bytes: int,
    doc_size: int = AVERAGE_DOCUMENT_SIZE,
) -> LocalSummary:
    """Construct the local summary named by *config* for a cache of the given size."""
    # Imported here: the representation modules subclass the ABCs above.
    from repro.summaries.bloom import BloomSummary
    from repro.summaries.keyset import KeySetSummary

    if config.kind in SET_KINDS:
        return KeySetSummary(config.kind)
    return BloomSummary(
        expected_documents_for_cache(cache_size_bytes, doc_size),
        config=config,
    )


class SummaryNode:
    """One proxy's local summary plus update-policy bookkeeping.

    Bundles the local summary with the counters the update policies
    consult.  The Section V simulator, the discrete-event simulator and
    the live proxy all drive their summaries through this class, and
    every one asks ``policy.due(node, now, cached_documents)``, so the
    "when is an update due" logic exists exactly once.  The live proxy
    and the discrete-event simulator hold only URLs and hook the cache to
    :meth:`on_insert` / :meth:`on_evict`; the Section V simulators,
    which derive each URL's key once per run, write keys through
    :meth:`LocalSummary.key_writers` and count :attr:`new_since_update`
    in hooks of their own.  The copies
    peers hold are not kept here: :meth:`publish` hands the drained
    delta to the caller, which applies it to its
    :class:`~repro.summaries.peers.PeerSummaries` (simulators) or puts
    it on the wire (proxy).
    """

    __slots__ = ("local", "new_since_update", "last_update_time")

    def __init__(
        self,
        config: SummaryConfig,
        cache_capacity: int,
        doc_size: int = AVERAGE_DOCUMENT_SIZE,
    ) -> None:
        self.local = make_local_summary(config, cache_capacity, doc_size=doc_size)
        self.new_since_update = 0
        self.last_update_time = 0.0

    def on_insert(self, url: str) -> None:
        """Cache-insert hook: *url* entered the cache."""
        local = self.local
        local.add_key(local.key_of(url))
        self.new_since_update += 1

    def on_evict(self, url: str) -> None:
        """Cache-evict hook: *url* left the cache."""
        local = self.local
        local.remove_key(local.key_of(url))

    def due_for_update(
        self, policy: UpdatePolicy, now: float, cached_documents: int
    ) -> bool:
        """Check whether the copies peers hold should be refreshed."""
        return policy.due(self, now, cached_documents)

    def publish(self, now: float) -> SummaryDelta:
        """Drain the pending delta and reset the update bookkeeping.

        Returns the delta, for the caller to deliver.
        """
        delta = self.local.drain_delta()
        self.new_since_update = 0
        self.last_update_time = now
        return delta

    def grow(self, urls: Collection[str], now: float) -> bool:
        """Double a Bloom filter the cache has outgrown; say whether it did.

        *urls* are the cached URLs.  A filter sized for ``num_bits /
        load_factor`` documents that holds more than twice that many has
        lost its load factor, and every peer's false-hit rate with it,
        so it is built again at double the bits from *urls*, up to
        :data:`MAX_SUMMARY_BITS`.  A URL whose memo line is still held
        gets its new positions with no MD5.  Nothing is pending
        afterwards and the update bookkeeping restarts: a delta cannot
        describe the new geometry, so the caller ships the whole array
        (:func:`~repro.summaries.codec.whole_summary_messages`).  A set
        summary grows with its directory and never does this.
        """
        if self.local.kind != "bloom":
            return False
        bloom = cast("BloomSummary", self.local)
        num_bits = bloom.num_bits * 2
        # The filter holds num_bits / load_factor documents at its load
        # factor; it grows once the cache holds more than twice that.
        if len(urls) * bloom.config.load_factor <= num_bits or num_bits > MAX_SUMMARY_BITS:
            return False
        keys = (bloom.hash_family.hashes(url, num_bits) for url in urls)
        bloom.counters = CounterArray.counted(num_bits, keys, bloom.config.counter_width)
        bloom.num_bits = num_bits
        self.new_since_update = 0
        self.last_update_time = now
        return True
