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
from repro.sharing.engine import _replay
from repro.sharing.summary_sharing import SummarySharingConfig
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.traces.partition import TraceLike


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
    parent = WebCache(parent_capacity)
    tally = _replay(
        trace,
        "hierarchy",
        [child_capacity] * num_children,
        policy=cfg.policy,
        ask="summaries" if sibling_sharing else "none",
        parent=parent,
        messages="summary" if sibling_sharing else "none",
        summary=cfg,
    )[0]
    return HierarchyResult(
        trace_name=tally.trace_name,
        num_children=num_children,
        requests=tally.requests,
        child_hits=tally.local_hits,
        sibling_hits=tally.remote_hits,
        parent_hits=parent.stats.hits,
        origin_fetches=parent.stats.requests - parent.stats.hits,
        sibling_query_messages=tally.messages.query_messages,
        sibling_update_messages=tally.messages.update_messages,
        sibling_query_bytes=tally.messages.query_bytes,
        sibling_update_bytes=tally.messages.update_bytes,
        parent_requests=parent.stats.requests,
    )
