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
A line also keeps the widest bit stream derived for its key, so a filter
rebuilt at a new size re-slices positions from a held line with no MD5;
a key whose line aged out is hashed again.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

from repro.errors import ConfigurationError, KeyTypeError

Key = Union[str, bytes]

#: Geometry of one hash family applied to one table:
#: ``(num_functions, function_bits, table_size)``.
Geometry = Tuple[int, int, int]

#: Default LRU bound.  A cache line is a digest plus a few position
#: tuples (~200 bytes); 256 Ki lines bound the memo near 50 MB while
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


class _Line:
    """One key's memoized hash products."""

    __slots__ = ("digest", "stream", "stream_bits", "positions")

    def __init__(self) -> None:
        self.digest: Optional[bytes] = None
        #: Widest bit stream derived so far, and how many bits it holds.
        self.stream: Optional[int] = None
        self.stream_bits = 0
        self.positions: Dict[Geometry, Tuple[int, ...]] = {}


class HashPositionCache:
    """LRU memo of MD5 digests and per-geometry bit positions.

    Parameters
    ----------
    max_entries:
        LRU bound on distinct keys.  Each key's digest and every
        geometry's positions live on one line and age out together.

    The cache owns its :attr:`hits`, :attr:`misses` and
    :attr:`evictions` counts as plain attributes; :meth:`stats` reads
    them.  It is single-threaded by design (matching every simulator);
    worker processes of the parallel runner each hold their own
    instance.
    """

    __slots__ = (
        "_lines", "_max_entries", "hits", "misses", "evictions",
    )

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._lines: "OrderedDict[Key, _Line]" = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Line management
    # ------------------------------------------------------------------

    def _miss_line(self, key: Key) -> _Line:
        """Install a fresh line for *key*, counting the miss.

        Lines are keyed by the key object itself (``str`` or ``bytes``)
        so the hit path never re-encodes; a URL probed as ``str`` and as
        its UTF-8 ``bytes`` therefore occupies two lines, which only
        costs memory, never correctness.
        """
        self.misses += 1
        line = _Line()
        lines = self._lines
        lines[key] = line
        if len(lines) > self._max_entries:
            lines.popitem(last=False)
            self.evictions += 1
        return line

    # ------------------------------------------------------------------
    # Memoized products
    # ------------------------------------------------------------------

    def digest(self, key: Key) -> bytes:
        """The interned 16-byte MD5 signature of *key*."""
        lines = self._lines
        line = lines.get(key)
        if line is not None:
            digest = line.digest
            if digest is not None:
                self.hits += 1
                lines.move_to_end(key)
                return digest
            # Line exists (positions were derived first) without a
            # digest: a miss for this product.
            self.misses += 1
        else:
            line = self._miss_line(key)
        line.digest = hashlib.md5(_as_bytes(key)).digest()
        return line.digest

    def _stream_for(self, data: bytes, line: _Line, total_bits: int) -> int:
        if line.stream is not None and line.stream_bits >= total_bits:
            return line.stream
        if total_bits <= 128 and line.digest is not None:
            # The first 128 stream bits are exactly the stored digest.
            stream = int.from_bytes(line.digest, "big")
            bits = 128
        else:
            stream = md5_stream(data, total_bits)
            bits = ((total_bits + 127) // 128) * 128
        line.stream = stream
        line.stream_bits = bits
        if line.digest is None and bits >= 128:
            line.digest = (stream & ((1 << 128) - 1)).to_bytes(16, "big")
        return stream

    def positions(
        self,
        key: Key,
        num_functions: int,
        function_bits: int,
        table_size: int,
    ) -> Tuple[int, ...]:
        """Bit positions of *key* under the given geometry, memoized."""
        lines = self._lines
        line = lines.get(key)
        if line is not None:
            cached = line.positions.get(
                (num_functions, function_bits, table_size)
            )
            if cached is not None:
                self.hits += 1
                lines.move_to_end(key)
                return cached
            self.misses += 1
        else:
            line = self._miss_line(key)
        stream = self._stream_for(
            _as_bytes(key), line, num_functions * function_bits
        )
        derived = positions_from_stream(
            stream, num_functions, function_bits, table_size
        )
        line.positions[(num_functions, function_bits, table_size)] = derived
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
