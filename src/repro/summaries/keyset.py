"""The set summaries: the keys a cache's URLs are filed under, counted."""

from __future__ import annotations

from typing import Dict, Iterable, Set

from repro.errors import ConfigurationError, SummaryStateError
from repro.summaries.backend import SET_KINDS, DigestDelta, DigestKey, LocalSummary


class KeySetSummary(LocalSummary):
    """Local set summary of *kind*: each held key and how many cached
    URLs are filed under it (Section V-B).

    The exact directory files a URL under its 16-byte MD5 signature, so
    every count is 1; the server-name summary files it under its server,
    which many URLs share.  A key enters the pending delta when its
    count leaves 0 and leaves it when the count returns there.  The
    paper sizes each entry at 16 bytes, for the local form and for the
    copy each peer holds, so Table III uses the paper's own figure.
    """

    def __init__(self, kind: str) -> None:
        if kind not in SET_KINDS:
            raise ConfigurationError(
                f"KeySetSummary requires one of {tuple(SET_KINDS)}, got {kind!r}"
            )
        self.kind = kind
        self._key_of = SET_KINDS[kind]
        self._counts: Dict[DigestKey, int] = {}
        self._pending_added: Set[DigestKey] = set()
        self._pending_removed: Set[DigestKey] = set()

    def add_key(self, key: DigestKey) -> None:
        counts = self._counts
        if key in counts:
            counts[key] += 1
            return
        counts[key] = 1
        if key in self._pending_removed:
            self._pending_removed.discard(key)
        else:
            self._pending_added.add(key)

    def remove_key(self, key: DigestKey) -> None:
        counts = self._counts
        count = counts.pop(key, 0)
        if count > 1:
            counts[key] = count - 1
            return
        if not count:
            raise SummaryStateError(f"remove of a key not held: {key!r}")
        if key in self._pending_added:
            self._pending_added.discard(key)
        else:
            self._pending_removed.add(key)

    def may_contain(self, url: str) -> bool:
        return self._key_of(url) in self._counts

    def key_of(self, url: str) -> DigestKey:
        return self._key_of(url)

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
        return DigestDelta(added=sorted(self._counts))

    def rebuild(self, urls: Iterable[str]) -> None:
        counts: Dict[DigestKey, int] = {}
        for url in urls:
            key = self._key_of(url)
            counts[key] = counts.get(key, 0) + 1
        self._counts = counts
        # Peers must receive the full key set next update.
        self._pending_added = set(counts)
        self._pending_removed = set()

    def size_bytes(self) -> int:
        return len(self._counts) * 16

    def remote_size_bytes(self) -> int:
        return len(self._counts) * 16

    def __len__(self) -> int:
        return len(self._counts)
