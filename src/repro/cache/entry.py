"""The unit a proxy cache stores: one document and its validator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


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
    digest:
        The URL's 16-byte MD5 signature, stored at insert time when the
        owning cache feeds a summary (``store_digests=True``), so
        summary rebuild/resync paths reuse it instead of re-hashing the
        whole directory.
    """

    url: str
    size: int
    version: int = 0
    digest: Optional[bytes] = None

    def is_fresh_for(self, version: int) -> bool:
        """True if this copy matches the document's current *version*."""
        return self.version == version
