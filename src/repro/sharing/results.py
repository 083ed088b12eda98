"""Result records shared by the cache-sharing simulators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class MessageCounts:
    """Interproxy protocol traffic accumulated during a simulation.

    Messages are unicast; a query round to *c* candidate peers counts
    *c* queries and *c* replies, and one summary update shipped to
    *n - 1* peers counts *n - 1* update messages (matching the paper's
    "All messages are assumed to be uni-cast messages").
    """

    query_messages: int = 0
    reply_messages: int = 0
    update_messages: int = 0
    query_bytes: int = 0
    reply_bytes: int = 0
    update_bytes: int = 0

    @property
    def total_messages(self) -> int:
        """Queries plus updates -- the paper's Fig. 7 accounting.

        The paper counts "inquiries" and update messages; replies are
        tracked separately (:attr:`reply_messages`) because the wire
        protocol does send them, but they are excluded here to match
        the paper's normalization.
        """
        return self.query_messages + self.update_messages

    @property
    def total_bytes(self) -> int:
        """Query plus update bytes (Fig. 8's accounting)."""
        return self.query_bytes + self.update_bytes

    def per_request(self, num_requests: int) -> float:
        """Messages per user HTTP request (Fig. 7's normalization)."""
        return self.total_messages / num_requests if num_requests else 0.0

    def bytes_per_request(self, num_requests: int) -> float:
        """Message bytes per user HTTP request (Fig. 8's normalization)."""
        return self.total_bytes / num_requests if num_requests else 0.0


@dataclass
class SharingResult:
    """Outcome of simulating one sharing scheme over one trace.

    The hit taxonomy follows Section V:

    - ``local_hits`` -- served fresh from the requesting proxy's cache;
    - ``remote_hits`` -- served fresh from a peer (found via queries);
    - ``false_misses`` -- a peer held a fresh copy, but the summaries did
      not reveal it, so the request went to the origin server;
    - ``false_hits`` -- summaries predicted a peer copy, queries were
      sent, and no queried peer held a fresh copy;
    - ``remote_stale_hits`` -- a queried peer held the document, but its
      copy was stale;
    - ``local_stale_hits`` -- the requesting proxy's own copy was stale
      (a miss under perfect consistency).
    """

    scheme: str
    trace_name: str
    num_proxies: int
    requests: int = 0
    local_hits: int = 0
    remote_hits: int = 0
    false_hits: int = 0
    false_misses: int = 0
    remote_stale_hits: int = 0
    local_stale_hits: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0
    messages: MessageCounts = field(default_factory=MessageCounts)
    summary_memory_bytes: int = 0
    cache_capacity_bytes: int = 0

    @property
    def total_hits(self) -> int:
        """Local plus remote fresh hits (Fig. 1's 'hit ratio' numerator)."""
        return self.local_hits + self.remote_hits

    @property
    def total_hit_ratio(self) -> float:
        """Fraction of requests avoiding origin-server traffic."""
        return self.total_hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        """Fraction of requested bytes avoiding origin-server traffic."""
        if not self.bytes_requested:
            return 0.0
        return self.bytes_hit / self.bytes_requested

    @property
    def false_hit_ratio(self) -> float:
        """Wasted query rounds per request (Fig. 6's y-axis)."""
        return self.false_hits / self.requests if self.requests else 0.0

    @property
    def false_miss_ratio(self) -> float:
        """Lost remote hits per request (the Fig. 2 degradation)."""
        return self.false_misses / self.requests if self.requests else 0.0

    @property
    def remote_stale_hit_ratio(self) -> float:
        """Remote stale hits per request."""
        return self.remote_stale_hits / self.requests if self.requests else 0.0

    @property
    def messages_per_request(self) -> float:
        """Fig. 7's y-axis."""
        return self.messages.per_request(self.requests)

    @property
    def message_bytes_per_request(self) -> float:
        """Fig. 8's y-axis."""
        return self.messages.bytes_per_request(self.requests)

    @property
    def summary_memory_ratio(self) -> float:
        """Summary memory as a fraction of proxy cache size (Table III)."""
        if not self.cache_capacity_bytes:
            return 0.0
        return self.summary_memory_bytes / self.cache_capacity_bytes
