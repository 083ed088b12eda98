"""The server-name summary: host names of cached URLs, refcounted."""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.errors import SummaryStateError
from repro.summaries.backend import DigestDelta, LocalSummary
from repro.urlutil import server_of


class ServerNameSummary(LocalSummary):
    """Local server-name summary: refcounted host names of cached URLs.

    The paper sizes each entry at 16 bytes for the message-byte
    estimate; the stored form uses the same figure, so Table III is
    regenerated with the paper's own assumptions.
    """

    kind = "server-name"

    def __init__(self) -> None:
        self._refcounts: Dict[str, int] = {}
        self._pending_added: Set[str] = set()
        self._pending_removed: Set[str] = set()

    def add_key(self, name: str) -> None:
        count = self._refcounts.get(name, 0)
        self._refcounts[name] = count + 1
        if count == 0:
            if name in self._pending_removed:
                self._pending_removed.discard(name)
            else:
                self._pending_added.add(name)

    def remove_key(self, name: str) -> None:
        count = self._refcounts.get(name, 0)
        if count == 0:
            raise SummaryStateError(f"remove of unknown server: {name!r}")
        if count == 1:
            del self._refcounts[name]
            if name in self._pending_added:
                self._pending_added.discard(name)
            else:
                self._pending_removed.add(name)
        else:
            self._refcounts[name] = count - 1

    def may_contain(self, url: str) -> bool:
        return server_of(url) in self._refcounts

    def key_of(self, url: str) -> str:
        return server_of(url)

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
        return DigestDelta(added=sorted(self._refcounts))

    def rebuild(self, urls: Iterable[str]) -> None:
        self._refcounts = {}
        for url in urls:
            name = server_of(url)
            self._refcounts[name] = self._refcounts.get(name, 0) + 1
        # Peers must receive the full name set next update.
        self._pending_added = set(self._refcounts)
        self._pending_removed = set()

    def size_bytes(self) -> int:
        return len(self._refcounts) * 16

    def remote_size_bytes(self) -> int:
        return len(self._refcounts) * 16

    def __len__(self) -> int:
        return len(self._refcounts)
