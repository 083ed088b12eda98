"""Proxy cache substrate: byte-capacity caches with pluggable replacement.

The paper's simulations "all use least-recently-used (LRU) as the cache
replacement algorithm, with the restriction that documents larger than
250 KB are not cached" (Section II).  :class:`~repro.cache.webcache.
WebCache` implements exactly that, with the replacement policy pluggable
(LRU/FIFO/LFU/SIZE/GDSF) because the paper notes "different replacement
algorithms may give different results".
"""

from repro.cache.webcache import DEFAULT_MAX_OBJECT_SIZE, WebCache

__all__ = ["DEFAULT_MAX_OBJECT_SIZE", "WebCache"]
