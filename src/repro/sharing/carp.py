"""The Cache Array Routing Protocol (CARP) baseline.

The paper's related work: "The cache array routing protocol divides
URL-space among an array of loosely coupled proxy servers, and lets
each proxy cache only the documents whose URL's are hashed to it.  An
advantage of the approach is that it eliminates duplicate copies of
documents.  However, it is not clear how well the approach performs
for wide-area cache sharing, where proxies are distributed over a
regional network" -- each proxy is much closer to its own users than
to the others, so requests routed to a remote owner pay a wide-area
hop even on a hit.

The hash-routing math itself lives in :mod:`repro.placement.ring`
(rendezvous hashing over the interned MD5 digests of
:mod:`repro.core.position_cache`), so the simulator and the live proxy
data plane route every URL to the same owner from one implementation.

This simulator measures what the paper's argument needs:

- the hit ratio (no duplicates -> effectively a partitioned global
  cache);
- the **remote-routing ratio**: the fraction of requests a client's
  proxy must forward to a *different* proxy, hit or miss -- CARP's
  wide-area cost, which summary cache avoids by serving local hits
  locally;
- per-proxy load balance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.placement.ring import carp_owner
from repro.sharing.engine import _replay
from repro.sharing.schemes import resolve_capacities
from repro.traces.partition import TraceLike

__all__ = ["CarpResult", "simulate_carp"]


@dataclass
class CarpResult:
    """Outcome of one CARP simulation."""

    trace_name: str
    num_proxies: int
    requests: int = 0
    hits: int = 0
    local_routed: int = 0
    remote_routed: int = 0
    per_proxy_requests: List[int] = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        """Requests served from some array member's cache."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def remote_routing_ratio(self) -> float:
        """Requests that had to cross the wide area to their owner."""
        return (
            self.remote_routed / self.requests if self.requests else 0.0
        )


def simulate_carp(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: int,
    policy: str = "lru",
) -> CarpResult:
    """Run CARP over *trace*: every URL lives only at its hash owner."""
    tally, caches, rerouted = _replay(
        trace,
        "carp",
        resolve_capacities(num_proxies, capacity_per_proxy),
        policy=policy,
        route=lambda url: carp_owner(url, num_proxies),
    )
    return CarpResult(
        trace_name=tally.trace_name,
        num_proxies=num_proxies,
        requests=tally.requests,
        hits=tally.local_hits,
        local_routed=tally.requests - rerouted,
        remote_routed=rerouted,
        per_proxy_requests=[cache.stats.requests for cache in caches],
    )
