"""The summary cache simulator (Section V) and the ICP message baseline.

Each proxy maintains:

- its document cache (:class:`repro.cache.WebCache`);
- a **local summary** of its own directory, updated on every insert and
  evict via cache callbacks.

The copies peers hold of those summaries -- the *shipped* summaries --
live in one :class:`~repro.summaries.PeerSummaries` for the whole run.
The simulation assumes updates reach all peers reliably and atomically
(the paper's simulation assumption), so one slot per proxy stands in
for the n-1 identical peer copies.

On a local miss, the requesting proxy probes all shipped summaries at
once and queries exactly the peers whose summaries say "maybe"
(sending one query and receiving one reply per queried peer).  The
four outcome classes of Section V -- remote hit, false hit, false miss,
remote stale hit -- are tallied along with message counts and bytes
under the paper's size model (:mod:`repro.sharing.messages`).

Update dissemination is governed by an update policy from
:mod:`repro.summaries.policies` (threshold / interval / packet-fill).
A threshold of 0 means peers always see the live directory (the "no
update delay" top line of Fig. 2): every change is delivered at once,
and no update message is counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache import WebCache
from repro.errors import ConfigurationError
from repro.obs.registry import get_registry
from repro.sharing.messages import (
    QUERY_MESSAGE_BYTES,
    bloom_update_bytes,
    digest_update_bytes,
    whole_filter_update_bytes,
)
from repro.sharing.results import SharingResult
from repro.sharing.schemes import Capacity, resolve_capacities
from repro.summaries import (
    AVERAGE_DOCUMENT_SIZE,
    BitFlipDelta,
    DigestDelta,
    PeerSummaries,
    SummaryConfig,
    SummaryNode,
    ThresholdUpdatePolicy,
    UpdatePolicy,
)
from repro.traces.partition import TraceLike, grouped_chunks

__all__ = [
    "SummarySharingConfig",
    "simulate_icp",
    "simulate_summary_sharing",
]


@dataclass(frozen=True)
class SummarySharingConfig:
    """Configuration of one summary cache simulation."""

    summary: SummaryConfig = field(default_factory=SummaryConfig)
    update_policy: UpdatePolicy = field(
        default_factory=ThresholdUpdatePolicy
    )
    policy: str = "lru"
    #: Average cacheable document size used to size Bloom filters
    #: (cache bytes / doc size = expected documents).  The paper divides
    #: by 8 KB; heavy-tailed synthetic workloads should pass their
    #: actual mean cacheable size (:func:`repro.traces.stats.
    #: mean_cacheable_size`) or the effective load factor degrades.
    expected_doc_size: int = AVERAGE_DOCUMENT_SIZE

    def label(self) -> str:
        return f"{self.summary.label()}/{self.update_policy.label()}"


class _KeyMemo(dict):
    """A run's url -> summary key memo, filled on first use by *key_of*."""

    __slots__ = ("key_of",)

    def __init__(self, key_of: Callable[[str], Any]) -> None:
        super().__init__()
        self.key_of = key_of

    def __missing__(self, url: str) -> Any:
        key = self[url] = self.key_of(url)
        return key


class _ProxyState:
    """Per-proxy simulation state: a cache wired to a summary node.

    All summary plumbing (the local summary, update bookkeeping) lives
    in :class:`repro.summaries.SummaryNode`; this class only pairs it
    with the document cache driving its callbacks.  The callbacks hand
    the node each URL's summary key from *keys*, the run's memo for
    this proxy's key space, so no insert or evict re-derives it.
    """

    __slots__ = ("cache", "node")

    def __init__(
        self,
        node: SummaryNode,
        capacity: int,
        policy: str,
        keys: Dict[str, Any],
    ) -> None:
        self.node = node
        insert = node.insert
        evict = node.evict

        def on_insert(url: str) -> None:
            insert(keys[url])

        def on_evict(url: str) -> None:
            evict(keys[url])

        self.cache = WebCache(
            capacity, policy=policy, on_insert=on_insert, on_evict=on_evict
        )


def _summary_proxies(
    capacities: List[int], config: SummarySharingConfig
) -> Tuple[List[_ProxyState], PeerSummaries, _KeyMemo]:
    """One run's proxies, their shipped summaries, and its probe-key memo.

    A URL's summary key (MD5 digest / server name / bit positions) is
    the same whichever proxy asks, so each key space -- a Bloom filter
    geometry; the digest sets have one -- gets one memo for the run: a
    dict filled on first use, so a hit is one subscript.  With one
    geometry the probe key *is* every proxy's key and that memo is also
    the probe memo, so carrying keys into insert and evict adds no
    memory.  With unequal capacities the probe key lists the URL's
    positions in every geometry and gets a memo of its own.  The
    derivation underneath flows through the process-wide
    HashPositionCache (repro.core.position_cache), which survives
    across runs: in a multi-cell grid over one trace, later cells
    warm-start instead of re-hashing every URL.
    """
    nodes = [
        SummaryNode(config.summary, size, doc_size=config.expected_doc_size)
        for size in capacities
    ]
    shipped = PeerSummaries.of([node.local for node in nodes])
    memos: Dict[Any, _KeyMemo] = {}
    proxies = []
    for node, size in zip(nodes, capacities):
        space = getattr(node.local, "num_bits", None)
        if space not in memos:
            memos[space] = _KeyMemo(node.local.key_of)
        proxies.append(_ProxyState(node, size, config.policy, memos[space]))
    if len(memos) == 1:
        (probe_keys,) = memos.values()
    else:
        probe_keys = _KeyMemo(shipped.key_of)
    return proxies, shipped, probe_keys


def _publish_metrics(
    result: SharingResult, update_drains: int, elapsed: float
) -> None:
    """Publish one finished run to the default registry, by scheme.

    The replay loops count into the :class:`~repro.sharing.results.
    SharingResult` alone; nothing can scrape a synchronous replay
    mid-run, so the Figs. 6-8 series (false hits, messages, bytes) are
    written from it once here and always agree with it.  Under the
    default null registry every call below is a no-op.
    """
    registry = get_registry()
    labels = {"scheme": result.scheme}
    msgs = result.messages

    def counter(name: str, help: str, value: int) -> None:
        registry.counter(name, help, labels=labels).inc(value)

    counter("sharing_requests_total", "requests simulated", result.requests)
    counter(
        "sharing_local_hits_total",
        "fresh hits in the local cache",
        result.local_hits,
    )
    counter(
        "sharing_remote_hits_total",
        "fresh hits served by a peer",
        result.remote_hits,
    )
    counter(
        "sharing_false_hits_total",
        "query rounds where no queried peer held the document (Fig. 6)",
        result.false_hits,
    )
    counter(
        "sharing_false_misses_total",
        "fresh peer copies the summaries failed to reveal",
        result.false_misses,
    )
    counter(
        "sharing_query_messages_total",
        "ICP queries sent (Fig. 7)",
        msgs.query_messages,
    )
    counter(
        "sharing_query_bytes_total",
        "ICP query bytes sent (Fig. 8)",
        msgs.query_bytes,
    )
    counter(
        "sharing_update_drains_total",
        "summary deltas drained and published",
        update_drains,
    )
    counter(
        "sharing_update_messages_total",
        "summary update messages shipped (Fig. 7)",
        msgs.update_messages,
    )
    counter(
        "sharing_update_bytes_total",
        "summary update bytes shipped (Fig. 8)",
        msgs.update_bytes,
    )
    registry.histogram(
        "sharing_simulation_seconds",
        "wall time of one sharing simulation",
        labels=labels,
    ).observe(elapsed)


def _delta_bytes(delta, num_bits: Optional[int] = None) -> int:
    """Wire size of one update carrying *delta*.

    For Bloom summaries the sender picks the cheaper encoding between
    the flip-record delta and the whole bit array ("the proxy can
    either specify which bits in the bit array are flipped, or send the
    whole array, whichever is smaller"); pass *num_bits* to enable that
    comparison.
    """
    if isinstance(delta, BitFlipDelta):
        delta_cost = bloom_update_bytes(delta.change_count)
        if num_bits is not None:
            return min(delta_cost, whole_filter_update_bytes(num_bits))
        return delta_cost
    if isinstance(delta, DigestDelta):
        return digest_update_bytes(delta.change_count)
    raise ConfigurationError(f"unknown delta type {type(delta).__name__}")


def simulate_summary_sharing(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: Capacity,
    config: Optional[SummarySharingConfig] = None,
) -> SharingResult:
    """Run the summary cache protocol over *trace*.

    Returns a :class:`~repro.sharing.results.SharingResult` with the full
    hit taxonomy, message counts, and summary memory footprint.
    *capacity_per_proxy* may be one size for all proxies or a per-proxy
    sequence (proportional allocation under load imbalance).

    *trace* may be a materialized :class:`~repro.traces.model.Trace`, an
    mmap-backed :class:`~repro.traces.binary.BinaryTraceReader`, or any
    request iterable; the replay consumes it once, chunk by chunk, so a
    streamed trace is never resident in memory.  Counters are bit-exact
    across all three for the same request stream.
    """
    cfg = config or SummarySharingConfig()
    capacities = resolve_capacities(num_proxies, capacity_per_proxy)
    proxies, shipped, key_cache = _summary_proxies(capacities, cfg)
    live = (
        isinstance(cfg.update_policy, ThresholdUpdatePolicy)
        and cfg.update_policy.live
    )
    result = SharingResult(
        scheme=f"summary/{cfg.label()}",
        trace_name=getattr(trace, "name", "stream"),
        num_proxies=num_proxies,
        cache_capacity_bytes=sum(capacities) // num_proxies,
    )
    msgs = result.messages
    update_drains = 0
    sim_start = perf_counter()
    # What a whole-filter update would carry, per proxy (Bloom only).
    filter_bits = [getattr(p.node.local, "num_bits", None) for p in proxies]
    # Peer directories, read in place: asking a peer is one lookup and
    # one version compare.
    lookups = [p.cache.entries.get for p in proxies]

    # Replay in chunks: group ids for a whole chunk are derived in one
    # sweep, and the per-request protocol logic below is untouched, so
    # results are bit-exact with the one-request-at-a-time loop.
    for chunk in grouped_chunks(trace, num_proxies):
        for g, req in chunk:
            me = proxies[g]
            result.requests += 1
            result.bytes_requested += req.size

            entry = me.cache.get(req.url, version=req.version, size=req.size)
            if entry is not None:
                result.local_hits += 1
                result.bytes_hit += entry.size
                continue

            # Probe the peers' shipped summaries and query the
            # promising ones, in peer order.
            mask = shipped.probe(key_cache[req.url]) & ~(1 << g)
            # slots_of(mask), spelled out: a call per miss is the one
            # thing this loop can still save.
            candidates = []
            while mask:
                low = mask & -mask
                candidates.append(low.bit_length() - 1)
                mask ^= low

            url = req.url
            version = req.version
            fresh = None
            stale_seen = False
            if candidates:
                msgs.query_messages += len(candidates)
                msgs.reply_messages += len(candidates)
                msgs.query_bytes += QUERY_MESSAGE_BYTES * len(candidates)
                msgs.reply_bytes += QUERY_MESSAGE_BYTES * len(candidates)
                for j in candidates:
                    entry = lookups[j](url)
                    if entry is not None:
                        if entry.version == version:
                            fresh = j
                            break
                        stale_seen = True
            if fresh is not None:
                result.remote_hits += 1
                result.bytes_hit += req.size
                proxies[fresh].cache.touch(url)
            else:
                if stale_seen:
                    result.remote_stale_hits += 1
                elif candidates:
                    result.false_hits += 1
                # No queried peer holds a fresh copy, and the requester
                # holds none at all (``get`` dropped a stale one): a
                # fresh copy anywhere is one the summaries failed to
                # reveal.
                for lookup in lookups:
                    entry = lookup(url)
                    if entry is not None and entry.version == version:
                        result.false_misses += 1
                        break

            # Fetch (from peer or origin) and cache locally, then check the
            # update trigger -- insertion may have pushed us past threshold.
            me.cache.put(url, req.size, version=version)
            if live or me.node.due_for_update(
                cfg.update_policy, req.timestamp, len(me.cache)
            ):
                delta = me.node.publish(req.timestamp)
                shipped.apply_delta(g, delta)
                if live:
                    continue  # no update delay: no message to count
                fanout = num_proxies - 1
                update_bytes = _delta_bytes(delta, filter_bits[g]) * fanout
                msgs.update_messages += fanout
                msgs.update_bytes += update_bytes
                update_drains += 1

    result.local_stale_hits = sum(
        p.cache.stats.stale_hits for p in proxies
    )
    # Memory per proxy: one remote copy per peer, plus this proxy's own
    # local structure (counters included for Bloom summaries).
    if proxies:
        remote = proxies[0].node.local.remote_size_bytes()
        local = proxies[0].node.local.size_bytes()
        result.summary_memory_bytes = remote * (num_proxies - 1) + local
    _publish_metrics(result, update_drains, perf_counter() - sim_start)
    return result


def simulate_icp(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: Capacity,
    policy: str = "lru",
) -> SharingResult:
    """Simple sharing with ICP's message pattern.

    "Every time one proxy has a cache miss, everyone else receives and
    processes a query message" -- each local miss multicasts a query to
    all n-1 peers, and each peer replies.
    """
    capacities = resolve_capacities(num_proxies, capacity_per_proxy)
    caches = [WebCache(size, policy=policy) for size in capacities]
    result = SharingResult(
        scheme="icp",
        trace_name=getattr(trace, "name", "stream"),
        num_proxies=num_proxies,
        cache_capacity_bytes=sum(capacities) // num_proxies,
    )
    msgs = result.messages
    sim_start = perf_counter()
    lookups = [cache.entries.get for cache in caches]

    for chunk in grouped_chunks(trace, num_proxies):
        for g, req in chunk:
            cache = caches[g]
            result.requests += 1
            result.bytes_requested += req.size
            entry = cache.get(req.url, version=req.version, size=req.size)
            if entry is not None:
                result.local_hits += 1
                result.bytes_hit += entry.size
                continue

            fanout = num_proxies - 1
            msgs.query_messages += fanout
            msgs.reply_messages += fanout
            msgs.query_bytes += QUERY_MESSAGE_BYTES * fanout
            msgs.reply_bytes += QUERY_MESSAGE_BYTES * fanout

            # Every peer answers; the requester's own directory has no
            # copy left to find (``get`` dropped a stale one).  Past the
            # first fresh copy nothing changes the outcome.
            fresh = None
            stale_seen = False
            for j, lookup in enumerate(lookups):
                entry = lookup(req.url)
                if entry is not None:
                    if entry.version == req.version:
                        fresh = j
                        break
                    stale_seen = True
            if fresh is not None:
                result.remote_hits += 1
                result.bytes_hit += req.size
                caches[fresh].touch(req.url)
            elif stale_seen:
                result.remote_stale_hits += 1
            cache.put(req.url, req.size, version=req.version)

    result.local_stale_hits = sum(c.stats.stale_hits for c in caches)
    _publish_metrics(result, 0, perf_counter() - sim_start)
    return result
