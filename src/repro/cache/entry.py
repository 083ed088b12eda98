"""The unit a proxy cache stores: one document and its validator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CacheEntry:
    """A cached document.

    Slotted: every insert, in all three engines, builds one.

    Attributes
    ----------
    url:
        The document's key.
    size:
        Body size in bytes; this is what counts against cache capacity.
    version:
        A monotone document version standing in for the last-modified
        time / size validator.  The paper assumes perfect consistency:
        "if a request hits on a document whose last-modified time or size
        is changed, we count it as a cache miss" -- a version mismatch is
        exactly that condition.

    An entry holds no URL digest: the process's
    :class:`~repro.core.position_cache.HashPositionCache` is the one
    place a URL's MD5 is kept.
    """

    url: str
    size: int
    version: int = 0

    def is_fresh_for(self, version: int) -> bool:
        """True if this copy matches the document's current *version*."""
        return self.version == version
