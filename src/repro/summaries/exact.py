"""The exact-directory summary: every cached URL's 16-byte MD5 digest."""

from __future__ import annotations

from typing import Iterable, Set

from repro.core.hashing import md5_digest
from repro.errors import SummaryStateError
from repro.summaries.backend import DigestDelta, LocalSummary


class ExactDirectorySummary(LocalSummary):
    """Local exact directory: every cached URL's 16-byte MD5 signature."""

    kind = "exact-directory"

    def __init__(self) -> None:
        self._digests: Set[bytes] = set()
        self._pending_added: Set[bytes] = set()
        self._pending_removed: Set[bytes] = set()

    def add_key(self, digest: bytes) -> None:
        if digest in self._digests:
            return
        self._digests.add(digest)
        if digest in self._pending_removed:
            self._pending_removed.discard(digest)
        else:
            self._pending_added.add(digest)

    def remove_key(self, digest: bytes) -> None:
        if digest not in self._digests:
            raise SummaryStateError(
                f"remove of a digest not in the directory: {digest.hex()}"
            )
        self._digests.discard(digest)
        if digest in self._pending_added:
            self._pending_added.discard(digest)
        else:
            self._pending_removed.add(digest)

    def may_contain(self, url: str) -> bool:
        return md5_digest(url) in self._digests

    def key_of(self, url: str) -> bytes:
        return md5_digest(url)

    def drain_delta(self) -> DigestDelta:
        delta = DigestDelta(
            added=sorted(self._pending_added),
            removed=sorted(self._pending_removed),
        )
        self._pending_added = set()
        self._pending_removed = set()
        return delta

    def pending_change_count(self) -> int:
        return len(self._pending_added) + len(self._pending_removed)

    def export(self) -> DigestDelta:
        return DigestDelta(added=sorted(self._digests))

    def rebuild(self, urls: Iterable[str]) -> None:
        self._digests = {md5_digest(url) for url in urls}
        # Peers must receive the full directory next update.
        self._pending_added = set(self._digests)
        self._pending_removed = set()

    def size_bytes(self) -> int:
        return len(self._digests) * 16

    def remote_size_bytes(self) -> int:
        return len(self._digests) * 16

    def __len__(self) -> int:
        return len(self._digests)
