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
out).  A miss asks the listed holders in ascending peer order, so it
finds the copy simple sharing's oracle finds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sharing.engine import _replay
from repro.sharing.schemes import resolve_capacities
from repro.traces.partition import TraceLike


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
    result = _replay(
        trace,
        "directory-server",
        resolve_capacities(num_proxies, capacity_per_proxy),
        policy=policy,
        ask="directory",
        messages="directory",
    )[0]
    msgs = result.messages
    return result, DirectoryServerLoad(
        msgs.query_messages, msgs.reply_messages, msgs.update_messages
    )
