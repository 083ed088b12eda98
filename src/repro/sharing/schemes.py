"""The four cooperation schemes of Section III (Fig. 1).

All four simulators consume the same input: a trace and a group count.
The trace is processed in global timestamp order; each request belongs to
the proxy its client maps to (clientid mod groups).  Cache capacity is
specified per proxy; the global-cache scheme pools the capacities.

Remote lookups here are *oracle* lookups -- the schemes of Section III
study the benefit of sharing assuming a perfect discovery mechanism
(the paper simulates ICP-style sharing without modelling its messages;
message overhead is the subject of Sections IV-V).
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.errors import ConfigurationError
from repro.placement.policy import CooperationPolicy
from repro.sharing.engine import _replay
from repro.sharing.results import SharingResult
from repro.traces.partition import TraceLike

#: Per-proxy capacity: one size for all, or one size per proxy (the
#: paper's prescription under load imbalance is "to allocate cache size
#: of each proxy to be proportional to its user population size").
Capacity = Union[int, Sequence[int]]


def resolve_capacities(
    num_proxies: int, capacity: Capacity
) -> List[int]:
    """Expand a scalar or per-proxy capacity spec into one int per proxy."""
    if num_proxies < 1:
        raise ConfigurationError(f"num_proxies must be >= 1, got {num_proxies}")
    if isinstance(capacity, int):
        sizes = [capacity] * num_proxies
    else:
        sizes = list(capacity)
        if len(sizes) != num_proxies:
            raise ConfigurationError(
                f"got {len(sizes)} capacities for {num_proxies} proxies"
            )
    if any(size < 1 for size in sizes):
        raise ConfigurationError("every capacity must be >= 1")
    return sizes


def simulate_no_sharing(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: Capacity,
    policy: str = "lru",
) -> SharingResult:
    """Each proxy serves only its own clients; misses go to the origin."""
    capacities = resolve_capacities(num_proxies, capacity_per_proxy)
    return _replay(trace, "no-sharing", capacities, policy=policy)[0]


def simulate_simple_sharing(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: Capacity,
    policy: str = "lru",
) -> SharingResult:
    """ICP-style sharing: fetch from a fresh peer copy, then cache locally.

    "Once a proxy fetches a document from another proxy, it caches the
    document locally.  Proxies do not coordinate cache replacements."
    """
    capacities = resolve_capacities(num_proxies, capacity_per_proxy)
    return _replay(
        trace, "simple-sharing", capacities, policy=policy, ask="all"
    )[0]


def simulate_single_copy_sharing(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: Capacity,
    policy: str = "lru",
) -> SharingResult:
    """Sharing without duplication: a remote hit only touches the peer copy.

    "A proxy does not cache documents fetched from another proxy.
    Rather, the other proxy marks the document as most-recently-accessed,
    and increases its caching priority."
    """
    capacities = resolve_capacities(num_proxies, capacity_per_proxy)
    return _replay(
        trace,
        "single-copy",
        capacities,
        policy=policy,
        ask="all",
        caches_remote_hits=CooperationPolicy.SINGLE_COPY.caches_remote_hits,
    )[0]


def simulate_global_cache(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: Capacity,
    policy: str = "lru",
    capacity_scale: float = 1.0,
) -> SharingResult:
    """Fully coordinated caching: one unified LRU of the pooled capacity.

    *capacity_scale* shrinks the pooled capacity; the paper also runs a
    "global cache 10% smaller" variant (``capacity_scale=0.9``) to bound
    the space wasted by duplicate copies in simple sharing.
    """
    if capacity_scale <= 0:
        raise ConfigurationError(
            f"capacity_scale must be > 0, got {capacity_scale}"
        )
    total = sum(resolve_capacities(num_proxies, capacity_per_proxy))
    pooled = max(1, int(total * capacity_scale))
    label = "global" if capacity_scale == 1.0 else f"global-{capacity_scale:g}x"
    # No sharing over one group that holds the pooled capacity, reported
    # per proxy of the cooperating array.
    result = _replay(trace, label, [pooled], policy=policy)[0]
    result.num_proxies = num_proxies
    result.cache_capacity_bytes = pooled // num_proxies
    return result
