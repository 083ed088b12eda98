"""The central directory server baseline.

The paper's related work: "The approach uses a central server to keep
track of the cache directories of all proxies, and all proxies query
the server for cache hits in other proxies.  The drawback of the
approach is that the central server can easily become a bottleneck.
The advantage is that little communication is needed between sibling
proxies except for remote hits."

This simulator implements it: proxies notify the central server of
every insert and evict (one message per change, batched per request),
and consult it on every local miss (one query + one reply).  The
server's directory is exact and current, so there are no false hits or
false misses -- the cost is concentrated entirely on the server, whose
message load this simulator measures (the bottleneck the paper calls
out).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.cache import WebCache
from repro.sharing.messages import QUERY_MESSAGE_BYTES
from repro.sharing.results import SharingResult
from repro.traces.partition import TraceLike, group_of

#: Wire size assumed for one directory change notification (header
#: plus a 16-byte digest, the exact-directory record size).
CHANGE_NOTIFICATION_BYTES = 20 + 16


@dataclass
class DirectoryServerLoad:
    """Messages handled by the central server."""

    queries: int = 0
    replies: int = 0
    change_notifications: int = 0

    @property
    def total(self) -> int:
        """All messages through the server."""
        return self.queries + self.replies + self.change_notifications

    def per_request(self, requests: int) -> float:
        """Server messages per user request -- the bottleneck metric."""
        return self.total / requests if requests else 0.0


def simulate_directory_server(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: int,
    policy: str = "lru",
):
    """Run the central-directory protocol over *trace*.

    Returns ``(SharingResult, DirectoryServerLoad)``.  The
    ``SharingResult``'s message counters record *proxy-side* protocol
    traffic (queries to the server and change notifications); the
    ``DirectoryServerLoad`` records everything the server handles.
    """
    directory: Dict[str, Set[int]] = {}
    versions: Dict[str, Dict[int, int]] = {}

    def on_insert(proxy: int):
        def hook(url: str) -> None:
            directory.setdefault(url, set()).add(proxy)
            server.change_notifications += 1
            result.messages.update_messages += 1
            result.messages.update_bytes += CHANGE_NOTIFICATION_BYTES

        return hook

    def on_evict(proxy: int):
        def hook(url: str) -> None:
            holders = directory.get(url)
            if holders is not None:
                holders.discard(proxy)
                if not holders:
                    del directory[url]
            versions.get(url, {}).pop(proxy, None)
            server.change_notifications += 1
            result.messages.update_messages += 1
            result.messages.update_bytes += CHANGE_NOTIFICATION_BYTES

        return hook

    result = SharingResult(
        scheme="directory-server",
        trace_name=getattr(trace, "name", "stream"),
        num_proxies=num_proxies,
        cache_capacity_bytes=capacity_per_proxy,
    )
    server = DirectoryServerLoad()
    caches: List[WebCache] = []
    for i in range(num_proxies):
        caches.append(
            WebCache(
                capacity_per_proxy,
                policy=policy,
                on_insert=on_insert(i),
                on_evict=on_evict(i),
            )
        )

    for req in trace:
        g = group_of(req.client_id, num_proxies)
        cache = caches[g]
        result.requests += 1
        result.bytes_requested += req.size

        entry = cache.get(req.url, version=req.version, size=req.size)
        if entry is not None:
            result.local_hits += 1
            result.bytes_hit += entry.size
            continue

        # One query to the server, one reply back.
        server.queries += 1
        server.replies += 1
        result.messages.query_messages += 1
        result.messages.reply_messages += 1
        result.messages.query_bytes += QUERY_MESSAGE_BYTES
        result.messages.reply_bytes += QUERY_MESSAGE_BYTES

        holders = directory.get(req.url, set()) - {g}
        fresh = None
        stale_seen = False
        for j in holders:
            outcome = caches[j].probe(req.url, req.version)
            if outcome == "hit":
                fresh = j
                break
            if outcome == "stale":
                stale_seen = True
        if fresh is not None:
            result.remote_hits += 1
            result.bytes_hit += req.size
            caches[fresh].touch(req.url)
        elif stale_seen:
            result.remote_stale_hits += 1
        cache.put(req.url, req.size, version=req.version)

    result.local_stale_hits = sum(c.stats.stale_hits for c in caches)
    return result, server
