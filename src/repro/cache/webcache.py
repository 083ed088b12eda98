"""The proxy cache: byte capacity, 250 KB object limit, pluggable policy.

This is the storage substrate under every sharing scheme in the paper's
simulations (Section II): an LRU cache limited by total bytes, refusing
documents larger than 250 KB, with perfect consistency modelled by a
document version validator.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.cache.entry import CacheEntry
from repro.cache.policies import ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats
from repro.errors import ConfigurationError

#: The paper's admission rule: "documents larger than 250 KB are not cached."
DEFAULT_MAX_OBJECT_SIZE = 250 * 1024

#: Callback invoked with the evicted/inserted URL.
KeyCallback = Callable[[str], None]


class WebCache:
    """A byte-capacity document cache.

    Parameters
    ----------
    capacity_bytes:
        Total bytes of documents the cache may hold.
    max_object_size:
        Admission limit; larger documents are never cached (the paper
        uses 250 KB).  ``None`` disables the limit.
    policy:
        A :class:`~repro.cache.policies.ReplacementPolicy` instance or a
        policy name (default ``"lru"``).
    on_insert / on_evict:
        Hooks called with the URL whenever a document enters or leaves
        the cache -- this is how a local summary tracks the directory.

    Notes
    -----
    ``get`` is version-aware: a lookup with a newer document version than
    the cached copy is a *stale hit*, counted as a miss per the paper's
    perfect-consistency assumption.
    """

    def __init__(
        self,
        capacity_bytes: int,
        max_object_size: Optional[int] = DEFAULT_MAX_OBJECT_SIZE,
        policy: Union[str, ReplacementPolicy] = "lru",
        on_insert: Optional[KeyCallback] = None,
        on_evict: Optional[KeyCallback] = None,
    ) -> None:
        if capacity_bytes < 1:
            raise ConfigurationError(
                f"capacity_bytes must be >= 1, got {capacity_bytes}"
            )
        if max_object_size is not None and max_object_size < 1:
            raise ConfigurationError(
                f"max_object_size must be >= 1 or None, got {max_object_size}"
            )
        self.capacity_bytes = capacity_bytes
        self.max_object_size = max_object_size
        self._policy = (
            make_policy(policy) if isinstance(policy, str) else policy
        )
        # Policy name for per-policy eviction attribution in CacheStats.
        self._policy_name = (
            policy.lower()
            if isinstance(policy, str)
            else type(self._policy).__name__.removesuffix("Policy").lower()
        )
        self._entries: Dict[str, CacheEntry] = {}
        #: ``peek(url)``: the entry for *url*, or ``None``, without
        #: touching recency or statistics.  It is the directory dict's
        #: own ``get``, so a simulator reading a peer's copy pays one
        #: dict read and compares ``entry.version`` itself.
        self.peek: Callable[[str], Optional[CacheEntry]] = self._entries.get
        #: ``num_documents()``: ``len(cache)`` as the directory dict's
        #: own ``__len__``, so a simulator asking after every insert
        #: runs no Python frame for it.
        self.num_documents: Callable[[], int] = self._entries.__len__
        self._used = 0
        self._on_insert = on_insert
        self._on_evict = on_evict
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently occupied."""
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def urls(self) -> List[str]:
        """Return the cached URLs (no particular order)."""
        return list(self._entries)

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------

    def get(self, url: str, version: int = 0, size: int = 0) -> Optional[CacheEntry]:
        """Look up *url*, updating recency and statistics.

        *version* is the document's current version; a cached copy with a
        different version is stale and treated as a miss (the stale copy
        is removed so the caller's subsequent :meth:`put` re-admits the
        fresh one).  *size* is used only for byte statistics.

        Returns the fresh entry on a hit, ``None`` on a miss.
        """
        entry = self._entries.get(url)
        stats = self.stats
        stats.requests += 1
        if entry is not None and entry.version == version:
            self._policy.on_access(url)
            stats.hits += 1
            stats.bytes_requested += entry.size
            stats.bytes_hit += entry.size
            return entry
        stats.bytes_requested += size
        if entry is not None:
            stats.stale_hits += 1
            self.remove(url)
        return None

    def probe(self, url: str, version: int = 0) -> str:
        """Classify a remote lookup: ``"hit"``, ``"stale"``, or ``"miss"``.

        Used when this cache is queried *as a peer*: unlike :meth:`get`
        it does not disturb statistics, evict stale copies, or touch
        recency (a peer query is not a use of the document until it is
        actually fetched).
        """
        entry = self._entries.get(url)
        if entry is None:
            return "miss"
        return "hit" if entry.is_fresh_for(version) else "stale"

    def put(self, url: str, size: int, version: int = 0) -> List[str]:
        """Admit a document, evicting as needed.

        Returns the list of evicted URLs (empty if none).  A document
        over the size limit or larger than the whole cache is rejected
        and nothing changes.
        """
        if size < 0:
            raise ConfigurationError(f"size must be >= 0, got {size}")
        if self.max_object_size is not None and size > self.max_object_size:
            self.stats.rejected_too_large += 1
            return []
        if size > self.capacity_bytes:
            self.stats.rejected_too_large += 1
            return []

        existing = self._entries.get(url)
        if existing is not None:
            # Re-admission of a known URL refreshes size/version in place.
            self._used -= existing.size
            existing.size = size
            existing.version = version
            self._used += size
            self._policy.on_access(url)
        else:
            self._entries[url] = CacheEntry(url, size, version)
            self._used += size
            self._policy.on_insert(url, size)
            if self._on_insert is not None:
                self._on_insert(url)
        if self._used > self.capacity_bytes:
            return self._evict_until_fits(protect=url)
        return []

    def touch(self, url: str) -> bool:
        """Mark *url* most recently used without a lookup.

        This is the single-copy sharing behaviour: on a remote hit "the
        other proxy marks the document as most-recently-accessed, and
        increases its caching priority."  Returns ``False`` if the URL is
        not cached.
        """
        if url not in self._entries:
            return False
        self._policy.on_access(url)
        return True

    def remove(self, url: str) -> bool:
        """Explicitly remove *url*; returns ``False`` if absent."""
        entry = self._entries.pop(url, None)
        if entry is None:
            return False
        self._used -= entry.size
        self._policy.on_remove(url)
        if self._on_evict is not None:
            self._on_evict(url)
        return True

    def _evict_until_fits(self, protect: Optional[str] = None) -> List[str]:
        """Evict policy victims until within capacity.

        *protect* shields the just-inserted URL: with non-recency
        policies (e.g. SIZE) the newcomer could otherwise be chosen as
        its own victim, looping forever.
        """
        evicted = []
        while self._used > self.capacity_bytes and self._entries:
            victim = self._policy.victim()
            if victim == protect:
                # Give the policy a different victim by briefly removing
                # the protected key from consideration.
                if len(self._entries) == 1:
                    break
                self._policy.on_remove(victim)
                fallback = self._policy.victim()
                entry = self._entries[victim]
                self._policy.on_insert(victim, entry.size)
                self._policy.on_access(victim)
                victim = fallback
            self.remove(victim)
            evicted.append(victim)
        if evicted:
            self.stats.evictions += len(evicted)
            self.stats.record_policy_eviction(self._policy_name, len(evicted))
        return evicted

    def clear(self) -> None:
        """Remove every entry (with eviction callbacks)."""
        for url in list(self._entries):
            self.remove(url)

    def __repr__(self) -> str:
        return (
            f"WebCache(capacity={self.capacity_bytes}, "
            f"used={self._used}, entries={len(self._entries)})"
        )
