"""Hierarchical cache sharing: summary cache between children and a parent.

Section VIII: "summary cache enhanced ICP can be used between parent
and child proxies.  The difference between a sibling proxy and a parent
proxy is that a proxy can not ask a sibling proxy to fetch a document
from the server, but can ask a parent proxy to do so."

This simulator models a two-level hierarchy (the Questnet topology:
child proxies of a regional network behind one parent):

1. a request first tries its child proxy's cache;
2. on a miss, optionally the SC-ICP *sibling* protocol runs among the
   children (summaries + targeted queries; a sibling serves only from
   cache);
3. otherwise the request goes to the **parent**, which serves from its
   own cache or fetches from the origin on the child's behalf (and
   caches the result);
4. the child caches whatever it receives.

The parent sees only the children's (post-sibling) misses -- exactly
the stream the paper says the Questnet trace records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cache import WebCache
from repro.errors import ConfigurationError
from repro.sharing.messages import QUERY_MESSAGE_BYTES
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    _delta_bytes,
    _summary_proxies,
)
from repro.summaries import (
    SummaryConfig,
    ThresholdUpdatePolicy,
    slots_of,
)
from repro.traces.partition import TraceLike, group_of


@dataclass
class HierarchyResult:
    """Outcome of one hierarchical simulation."""

    trace_name: str
    num_children: int
    requests: int = 0
    child_hits: int = 0
    sibling_hits: int = 0
    parent_hits: int = 0
    origin_fetches: int = 0
    sibling_query_messages: int = 0
    sibling_update_messages: int = 0
    sibling_query_bytes: int = 0
    sibling_update_bytes: int = 0
    parent_requests: int = 0

    @property
    def child_hit_ratio(self) -> float:
        """Requests served by the requesting child's own cache."""
        return self.child_hits / self.requests if self.requests else 0.0

    @property
    def total_hit_ratio(self) -> float:
        """Requests that avoided the origin server entirely."""
        hits = self.child_hits + self.sibling_hits + self.parent_hits
        return hits / self.requests if self.requests else 0.0

    @property
    def origin_traffic_ratio(self) -> float:
        """Fraction of requests reaching the origin."""
        return (
            self.origin_fetches / self.requests if self.requests else 0.0
        )


def simulate_hierarchy(
    trace: TraceLike,
    num_children: int,
    child_capacity: int,
    parent_capacity: int,
    sibling_sharing: bool = True,
    summary_config: Optional[SummarySharingConfig] = None,
) -> HierarchyResult:
    """Run the two-level hierarchy over *trace*.

    ``sibling_sharing=False`` gives the plain hierarchy (children +
    parent only); ``True`` adds the SC-ICP protocol among the children,
    which offloads the parent.
    """
    if num_children < 1:
        raise ConfigurationError("num_children must be >= 1")
    cfg = summary_config or SummarySharingConfig(
        summary=SummaryConfig(kind="bloom", load_factor=16),
        update_policy=ThresholdUpdatePolicy(0.01),
    )
    # Without sibling sharing nothing probes, so the children's key memo
    # is filled by their first inserts.
    children, shipped, key_cache = _summary_proxies(
        [child_capacity] * num_children, cfg
    )
    parent = WebCache(parent_capacity)
    result = HierarchyResult(
        trace_name=getattr(trace, "name", "stream"),
        num_children=num_children,
    )
    live = (
        isinstance(cfg.update_policy, ThresholdUpdatePolicy)
        and cfg.update_policy.live
    )
    filter_bits = [getattr(c.node.local, "num_bits", None) for c in children]
    lookups = [c.cache.entries.get for c in children]

    for req in trace:
        g = group_of(req.client_id, num_children)
        me = children[g]
        result.requests += 1

        entry = me.cache.get(req.url, version=req.version, size=req.size)
        if entry is not None:
            result.child_hits += 1
            continue

        served = False
        if sibling_sharing and num_children > 1:
            candidates = slots_of(shipped.probe(key_cache[req.url]) & ~(1 << g))
            if candidates:
                result.sibling_query_messages += len(candidates)
                result.sibling_query_bytes += (
                    QUERY_MESSAGE_BYTES * len(candidates)
                )
                for j in candidates:
                    entry = lookups[j](req.url)
                    if entry is not None and entry.version == req.version:
                        result.sibling_hits += 1
                        children[j].cache.touch(req.url)
                        served = True
                        break

        if not served:
            # Ask the parent: it serves from cache or fetches upstream.
            result.parent_requests += 1
            parent_entry = parent.get(
                req.url, version=req.version, size=req.size
            )
            if parent_entry is not None:
                result.parent_hits += 1
            else:
                result.origin_fetches += 1
                parent.put(req.url, req.size, version=req.version)

        me.cache.put(req.url, req.size, version=req.version)
        if sibling_sharing and (
            live
            or me.node.due_for_update(
                cfg.update_policy, req.timestamp, len(me.cache)
            )
        ):
            delta = me.node.publish(req.timestamp)
            shipped.apply_delta(g, delta)
            if live:
                continue  # no update delay: no message to count
            fanout = num_children - 1
            result.sibling_update_messages += fanout
            result.sibling_update_bytes += (
                _delta_bytes(delta, filter_bits[g]) * fanout
            )

    return result
