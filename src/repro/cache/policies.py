"""Replacement policies for :class:`repro.cache.webcache.WebCache`.

The paper's headline results use LRU.  The other policies exist because
Section III explicitly flags replacement as a sensitivity ("Different
replacement algorithms may give different results"), and the benchmark
suite includes a policy sweep.

A policy tracks ordering metadata only; the cache owns the entries.  The
contract:

- :meth:`ReplacementPolicy.on_insert` -- a new key entered the cache.
- :meth:`ReplacementPolicy.on_access` -- an existing key was hit.
- :meth:`ReplacementPolicy.on_remove` -- a key left the cache (any reason).
- :meth:`ReplacementPolicy.victim` -- choose the next key to evict.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Any, Dict, List, Tuple

from repro.errors import CacheStateError, ConfigurationError


class ReplacementPolicy(ABC):
    """Interface all replacement policies implement."""

    @abstractmethod
    def on_insert(self, key: str, size: int) -> None:
        """Register a newly inserted *key* of *size* bytes."""

    @abstractmethod
    def on_access(self, key: str) -> None:
        """Register a hit on *key*."""

    @abstractmethod
    def on_remove(self, key: str) -> None:
        """Forget *key* (evicted or explicitly removed)."""

    @abstractmethod
    def victim(self) -> str:
        """Return the key to evict next.  Undefined when empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked keys."""


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used key (the paper's default).

    An insert, a hit and a removal cost one C call each: every instance
    binds :meth:`on_insert`, :meth:`on_access` and :meth:`on_remove` to
    its ``OrderedDict``'s own ``__setitem__`` (the size rides along as
    the unused value), ``move_to_end`` and ``__delitem__``, so none adds
    a Python frame.  An unknown key raises ``KeyError``, as the methods
    below do.
    """

    def __init__(self) -> None:
        self._order: "OrderedDict[str, int]" = OrderedDict()
        self.on_insert = self._order.__setitem__  # type: ignore[method-assign]
        self.on_access = self._order.move_to_end  # type: ignore[method-assign]
        self.on_remove = self._order.__delitem__  # type: ignore[method-assign]

    def on_insert(self, key: str, size: int) -> None:
        self._order[key] = size

    def on_access(self, key: str) -> None:
        self._order.move_to_end(key)

    def on_remove(self, key: str) -> None:
        del self._order[key]

    def victim(self) -> str:
        if not self._order:
            raise CacheStateError("victim() on empty LRU policy")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class FIFOPolicy(ReplacementPolicy):
    """Evict in insertion order; hits do not refresh position."""

    def __init__(self) -> None:
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def on_insert(self, key: str, size: int) -> None:
        self._order[key] = None

    def on_access(self, key: str) -> None:
        pass

    def on_remove(self, key: str) -> None:
        del self._order[key]

    def victim(self) -> str:
        if not self._order:
            raise CacheStateError("victim() on empty FIFO policy")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


#: Slack below which a heap policy's heap is never rebuilt.
_HEAP_FLOOR = 64

#: A heap entry: ``(rank, sequence, key)``.
_Entry = Tuple[Any, int, str]


class _HeapPolicy(ReplacementPolicy):
    """A policy evicting the key of least rank, kept in a lazy heap.

    Each tracked key has one *current* entry ``(rank, sequence, key)``.
    Re-ranking a key pushes a new entry and leaves the old one in the
    heap, skipped when it surfaces; an entry is live only while it is
    its key's current one, so an entry left behind by a removed key
    never comes back if the key is admitted again.  Sequence numbers
    are unique: no two entries compare equal, and ties in rank break by
    push order.

    A policy that re-ranks on every hit would grow the heap by one
    entry per hit, so once it holds more than twice the tracked keys
    (plus :data:`_HEAP_FLOOR`) it is rebuilt from the current entries.
    Those pop in the same order as before, so no victim changes.
    """

    def __init__(self) -> None:
        self._current: Dict[str, _Entry] = {}
        self._heap: List[_Entry] = []
        self._seq = 0

    def _push(self, key: str, rank: Any) -> None:
        self._seq += 1
        self._current[key] = entry = (rank, self._seq, key)
        heap = self._heap
        heapq.heappush(heap, entry)
        if len(heap) > 2 * len(self._current) + _HEAP_FLOOR:
            heap[:] = self._current.values()
            heapq.heapify(heap)

    def _least(self) -> _Entry:
        """The live entry of least rank, dropping stale ones above it."""
        heap = self._heap
        current = self._current
        while heap:
            entry = heap[0]
            if current.get(entry[2]) is entry:
                return entry
            heapq.heappop(heap)
        raise CacheStateError(f"victim() on empty {type(self).__name__}")

    def on_remove(self, key: str) -> None:
        del self._current[key]

    def victim(self) -> str:
        return self._least()[2]

    def __len__(self) -> int:
        return len(self._current)


class LFUPolicy(_HeapPolicy):
    """Evict the least frequently used key; LRU among ties.

    A key's rank is its use count: 1 at insert, one more per hit.
    """

    def on_insert(self, key: str, size: int) -> None:
        self._push(key, 1)

    def on_access(self, key: str) -> None:
        self._push(key, self._current[key][0] + 1)


class SizePolicy(ReplacementPolicy):
    """Evict the largest document first (the classic SIZE policy)."""

    def __init__(self) -> None:
        self._size: Dict[str, int] = {}
        self._heap: list = []  # (-size, seq, key), lazy deletion
        self._seq = 0

    def on_insert(self, key: str, size: int) -> None:
        self._size[key] = size
        self._seq += 1
        heapq.heappush(self._heap, (-size, self._seq, key))

    def on_access(self, key: str) -> None:
        pass

    def on_remove(self, key: str) -> None:
        del self._size[key]

    def victim(self) -> str:
        while self._heap:
            neg_size, _, key = self._heap[0]
            current = self._size.get(key)
            if current is None or current != -neg_size:
                heapq.heappop(self._heap)
                continue
            return key
        raise CacheStateError("victim() on empty SIZE policy")

    def __len__(self) -> int:
        return len(self._size)


class GDSFPolicy(_HeapPolicy):
    """Greedy-Dual-Size-Frequency: evict min of ``L + freq / size``.

    The inflation term ``L`` (the priority of the last victim) ages out
    documents that were once popular, giving GDSF its scan resistance.
    """

    def __init__(self) -> None:
        super().__init__()
        self._freq: Dict[str, int] = {}
        self._size: Dict[str, int] = {}
        self._inflation = 0.0

    def _push_score(self, key: str) -> None:
        score = self._inflation + self._freq[key] / max(1, self._size[key])
        self._push(key, score)

    def on_insert(self, key: str, size: int) -> None:
        self._freq[key] = 1
        self._size[key] = size
        self._push_score(key)

    def on_access(self, key: str) -> None:
        self._freq[key] += 1
        self._push_score(key)

    def on_remove(self, key: str) -> None:
        del self._freq[key]
        del self._size[key]
        super().on_remove(key)

    def victim(self) -> str:
        priority, _, key = self._least()
        self._inflation = priority
        return key


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "lfu": LFUPolicy,
    "size": SizePolicy,
    "gdsf": GDSFPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (``lru``/``fifo``/``lfu``/``size``/``gdsf``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; "
            f"expected one of {sorted(_POLICIES)}"
        ) from None
    return cls()
