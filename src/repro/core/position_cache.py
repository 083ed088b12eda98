"""A shared memo of MD5 digests and derived Bloom bit positions.

Every summary representation ultimately keys off the same computation:
the MD5 signature of a URL (Section V-B stores it verbatim; Section VI-A
slices it into hash-function outputs).  In a trace-driven simulation the
same URL is hashed over and over -- once per insert, once per evict, and
once per probe round -- and in an n-proxy cluster the *identical* slices
are recomputed at every peer.

:class:`HashPositionCache` memoizes, per key:

- the 16-byte MD5 **digest** (interned: the exact-directory summary, the
  wire codec, and the position derivation all share one ``bytes``
  object), and
- the derived **bit positions** per ``(num_functions, function_bits,
  array_size)`` geometry, so N proxies probing the same URL against
  same-shaped filters hash once, not N times.

The cache is bounded by an LRU over keys (a key's digest and all of its
per-geometry positions age out together) and is purely a memo: a line
that aged out is recomputed bit for bit, so it never changes a
simulation's outputs, only its speed.

It is the one place a URL's MD5 is kept.  The process holds one memo,
built at import time (:func:`get_position_cache`); every
:func:`~repro.core.hashing.md5_digest` and
:meth:`~repro.core.hashing.MD5HashFamily.hashes` call goes through it.
For a family of at most 128 bits the digest is the whole bit stream, so
a filter rebuilt at a new size re-slices positions from a held line with
no MD5; a wider family keeps its stream beside the digest.  A key whose
line aged out is hashed again.

Measured with ``tracemalloc`` over 50,000 URLs (Python 3.11 and 3.12;
3.10 reads about 12 bytes more), a line holding one 4 x 32-bit
geometry's positions costs 379 bytes and a digest-only line 140 bytes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Tuple, Union

from repro.errors import ConfigurationError, KeyTypeError

Key = Union[str, bytes]

#: Geometry of one hash family applied to one table:
#: ``(num_functions, function_bits, table_size)``.
Geometry = Tuple[int, int, int]

#: Default LRU bound.  A line holding one Bloom geometry's positions costs
#: about 360 bytes at this size (a digest-only line about 130), so 256 Ki
#: lines bound the memo near 90 MiB (32 MiB digest-only) while
#: comfortably holding every distinct URL of the paper-scale workloads.
DEFAULT_MAX_ENTRIES = 1 << 18


def _as_bytes(key: Key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    raise KeyTypeError(f"keys must be str or bytes, not {type(key).__name__}")


def md5_stream(data: bytes, total_bits: int) -> int:
    """Return *total_bits* of MD5 output for *data* as one big integer.

    The first 128 bits are ``MD5(data)``; further 128-bit blocks come
    from ``MD5(data * 2)``, ``MD5(data * 3)``, ... per the paper's
    extension rule (Section VI-A).  This is the single implementation of
    the paper's bit-stream construction; :meth:`HashPositionCache.
    positions` derives every memoized stream with it.
    """
    stream = 0
    produced = 0
    copies = 1
    while produced < total_bits:
        digest = hashlib.md5(data * copies).digest()
        stream |= int.from_bytes(digest, "big") << produced
        produced += 128
        copies += 1
    return stream


def positions_from_stream(
    stream: int, num_functions: int, function_bits: int, table_size: int
) -> Tuple[int, ...]:
    """Slice *stream* into ``num_functions`` bit positions mod *table_size*."""
    mask = (1 << function_bits) - 1
    return tuple(
        ((stream >> (i * function_bits)) & mask) % table_size
        for i in range(num_functions)
    )


class HashPositionCache:
    """LRU memo of MD5 digests and per-geometry bit positions.

    Parameters
    ----------
    max_entries:
        LRU bound on distinct keys.  A key's digest and every
        geometry's positions age out together.

    Three flat tables hold the memo, so a line is a few dict entries and
    no object of its own (nothing per line for the garbage collector to
    track):

    - ``_lines`` maps each key to its interned digest, in LRU order;
    - ``_tables`` maps each geometry to its ``{key: positions}`` dict;
    - ``_wide`` maps a key to ``(stream, bits)``, its widest stream, for
      families that need more than 128 bits.  For any narrower family
      the digest *is* the stream, so it is never stored twice.

    The cache owns its :attr:`hits`, :attr:`misses` and
    :attr:`evictions` counts as plain attributes; :meth:`stats` reads
    them.  It is single-threaded by design (matching every simulator);
    worker processes of the parallel runner each hold their own
    instance.
    """

    __slots__ = (
        "_lines", "_tables", "_wide", "_max_entries",
        "hits", "misses", "evictions",
    )

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._lines: "OrderedDict[Key, bytes]" = OrderedDict()
        self._tables: Dict[Geometry, Dict[Key, Tuple[int, ...]]] = {}
        self._wide: Dict[Key, Tuple[int, int]] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Line management
    # ------------------------------------------------------------------

    def _install(self, key: Key) -> bytes:
        """Hash *key* into a new line, evicting the coldest past the bound.

        Lines are keyed by the key object itself (``str`` or ``bytes``)
        so the hit path never re-encodes; a URL probed as ``str`` and as
        its UTF-8 ``bytes`` therefore occupies two lines, which only
        costs memory, never correctness.  Evicting a line drops the key
        from every table, so its digest and positions age out together.
        """
        lines = self._lines
        digest = hashlib.md5(_as_bytes(key)).digest()
        lines[key] = digest
        if len(lines) > self._max_entries:
            old, _ = lines.popitem(last=False)
            tables = self._tables
            emptied = [
                geometry
                for geometry, table in tables.items()
                if table.pop(old, None) is not None and not table
            ]
            for geometry in emptied:
                del tables[geometry]
            self._wide.pop(old, None)
            self.evictions += 1
        return digest

    # ------------------------------------------------------------------
    # Memoized products
    # ------------------------------------------------------------------

    def digest(self, key: Key) -> bytes:
        """The interned 16-byte MD5 signature of *key*."""
        lines = self._lines
        digest = lines.get(key)
        if digest is not None:
            self.hits += 1
            lines.move_to_end(key)
            return digest
        self.misses += 1
        return self._install(key)

    def positions(
        self,
        key: Key,
        num_functions: int,
        function_bits: int,
        table_size: int,
    ) -> Tuple[int, ...]:
        """Bit positions of *key* under the given geometry, memoized."""
        geometry = (num_functions, function_bits, table_size)
        table = self._tables.get(geometry)
        if table is not None:
            cached = table.get(key)
            if cached is not None:
                self.hits += 1
                self._lines.move_to_end(key)
                return cached
        self.misses += 1
        lines = self._lines
        digest = lines.get(key)
        if digest is None:
            digest = self._install(key)
        else:
            lines.move_to_end(key)
        total_bits = num_functions * function_bits
        if total_bits <= 128:
            # The first 128 stream bits are exactly the digest.
            stream = int.from_bytes(digest, "big")
        else:
            wide = self._wide.get(key)
            if wide is not None and wide[1] >= total_bits:
                stream = wide[0]
            else:
                stream = md5_stream(_as_bytes(key), total_bits)
                self._wide[key] = (stream, ((total_bits + 127) // 128) * 128)
        derived = positions_from_stream(
            stream, num_functions, function_bits, table_size
        )
        # Looked up again: the miss may have evicted the last key of a
        # table, and an emptied table is dropped.
        self._tables.setdefault(geometry, {})[key] = derived
        return derived

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def max_entries(self) -> int:
        """The LRU bound this cache was built with."""
        return self._max_entries

    def clear(self) -> None:
        """Drop every line (counters are preserved)."""
        self._lines.clear()
        self._tables.clear()
        self._wide.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counts and current size, as a plain dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._lines),
            "max_entries": self._max_entries,
        }

    def __repr__(self) -> str:
        return (
            f"HashPositionCache(entries={len(self._lines)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


#: The process's one memo, built at import time.
_default_cache = HashPositionCache()


def get_position_cache() -> HashPositionCache:
    """The process's memo (its counters are what a profile reads)."""
    return _default_cache
