"""Table I statistics: the identifying numbers of a trace.

For each trace the paper reports its duration, request count, client
count, the *infinite cache size* ("the total size in bytes of unique
documents in a trace, i.e. the size of the cache which incurs no cache
replacement"), and the maximum hit and byte-hit ratios achievable with
that infinite cache.

The maximum ratios are computed by running the trace through an
unbounded cache under the perfect-consistency rule: a re-reference to a
document whose version changed is a miss (and contributes the document's
bytes again to the infinite cache size only if its size changed -- the
version bump models a modification, so we count the newest copy's
bytes once per document, matching "unique documents").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.traces.partition import TraceLike

#: The cacheability limit the paper's simulations apply.
DEFAULT_CACHEABLE_LIMIT = 250 * 1024


@dataclass(frozen=True)
class TraceStats:
    """The Table I row for one trace."""

    name: str
    duration_seconds: float
    num_requests: int
    num_clients: int
    infinite_cache_bytes: int
    max_hit_ratio: float
    max_byte_hit_ratio: float

    def row(self) -> tuple:
        """Return the stats as a printable Table I row."""
        return (
            self.name,
            f"{self.duration_seconds / 3600:.1f}h",
            self.num_requests,
            self.num_clients,
            f"{self.infinite_cache_bytes / 2**20:.1f} MB",
            f"{self.max_hit_ratio:.3f}",
            f"{self.max_byte_hit_ratio:.3f}",
        )


def compute_stats(trace: TraceLike) -> TraceStats:
    """Compute the Table I statistics for *trace*.

    Single pass over any request iterable (a :class:`Trace`, an
    mmap-backed binary reader, or a generator): count, duration, and
    client set are tracked inline, so the stream is consumed exactly
    once and nothing O(requests) is retained.
    """
    seen_version: Dict[str, int] = {}
    seen_size: Dict[str, int] = {}
    hits = 0
    bytes_hit = 0
    bytes_total = 0
    clients = set()
    n = 0
    first_timestamp = 0.0
    last_timestamp = 0.0

    for req in trace:
        if n == 0:
            first_timestamp = req.timestamp
        last_timestamp = req.timestamp
        n += 1
        clients.add(req.client_id)
        bytes_total += req.size
        prior = seen_version.get(req.url)
        if prior is not None and prior == req.version:
            hits += 1
            bytes_hit += req.size
        seen_version[req.url] = req.version
        seen_size[req.url] = req.size

    infinite_cache = sum(seen_size.values())
    return TraceStats(
        name=getattr(trace, "name", "stream"),
        duration_seconds=last_timestamp - first_timestamp if n >= 2 else 0.0,
        num_requests=n,
        num_clients=len(clients),
        infinite_cache_bytes=infinite_cache,
        max_hit_ratio=hits / n if n else 0.0,
        max_byte_hit_ratio=bytes_hit / bytes_total if bytes_total else 0.0,
    )


def mean_cacheable_size(
    trace: TraceLike, max_object_size: int = DEFAULT_CACHEABLE_LIMIT
) -> int:
    """Mean size of distinct cacheable documents in *trace*.

    Bloom summaries are sized as cache bytes / average document size;
    using the trace's own cacheable mean (rather than the paper's 8 KB
    constant) keeps the nominal load factor honest for heavy-tailed
    synthetic workloads where the tail is excluded by the 250 KB
    admission rule.
    """
    sizes = {}
    for req in trace:
        if req.size <= max_object_size:
            sizes[req.url] = req.size
    if not sizes:
        return 1
    return max(1, sum(sizes.values()) // len(sizes))
