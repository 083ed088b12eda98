"""The one replay loop behind every cache-sharing simulator.

Sections III-V compare no sharing, simple sharing, single-copy sharing,
a global cache, ICP and summary cache; the related work adds CARP and a
central directory server, and Section VIII a parent cache.  They differ
only in who a proxy asks on a miss and what each exchange costs, so
:func:`_replay` replays them all, reading a scheme along four axes
(``docs/simulators.md`` tabulates each simulator's settings):

- **route** -- the client's own proxy serves a request, or the proxy a
  *route* function names (CARP's hash owner); a global cache is one
  pooled cache serving every client.
- **ask** -- who is asked on a local miss, as a bitmask read in peer
  order: nobody, every peer as an oracle, the peers whose shipped
  summaries say "maybe", or the holders an exact central directory
  lists; then, if given, a *parent* cache.
- **store** -- whether the requester also caches a remote hit.
- **messages** -- what the exchanges cost (:mod:`repro.sharing.messages`).

Every scheme choice is hoisted into a local before the loop, which makes
no per-request or per-miss strategy call: the summary path keeps the
shape it had as a loop of its own.  The loop's tallies are locals too,
written to the :class:`SharingResult` once, after the last record.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.cache import WebCache
from repro.sharing.messages import (
    QUERY_MESSAGE_BYTES,
    bloom_update_bytes,
    digest_update_bytes,
    whole_filter_update_bytes,
)
from repro.sharing.results import MessageCounts, SharingResult
from repro.summaries import BitFlipDelta, PeerSummaries, SummaryNode
from repro.summaries.codec import ships_whole
from repro.traces.partition import TraceLike

if TYPE_CHECKING:
    from repro.sharing.summary_sharing import SummarySharingConfig


class _KeyMemo(dict):
    """A run's url -> key memo, filled on first use by *key_of*."""

    __slots__ = ("key_of",)

    def __init__(self, key_of: Callable[[str], Any]) -> None:
        super().__init__()
        self.key_of = key_of

    def __missing__(self, url: str) -> Any:
        key = self[url] = self.key_of(url)
        return key


def _summary_hooks(
    node: SummaryNode, keys: Dict[str, Any]
) -> Tuple[Callable[[str], None], Callable[[str], None]]:
    """The cache's insert and evict hooks for *node*.

    Each reads the URL's summary key from the run's memo *keys* and
    hands it straight to the local summary's key writer
    (:meth:`~repro.summaries.backend.LocalSummary.key_writers`); the
    insert hook also counts the new document, as
    :meth:`SummaryNode.on_insert` does.  Each hook is one frame above
    the summary's counters.  The evict hook is named for what it does:
    ``bench/``'s per-layer report counts a cache call into a function
    named ``*evict*`` as an eviction.
    """
    add_key, remove_key = node.local.key_writers()

    def insert(url: str) -> None:
        add_key(keys[url])
        node.new_since_update += 1

    def evict(url: str) -> None:
        remove_key(keys[url])

    return insert, evict


def _summary_proxies(
    capacities: List[int], config: SummarySharingConfig
) -> Tuple[List[WebCache], List[SummaryNode], PeerSummaries, _KeyMemo]:
    """One run's caches, summary nodes, shipped summaries and probe-key memo.

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
    caches = []
    for node, size in zip(nodes, capacities):
        space = getattr(node.local, "num_bits", None)
        if space not in memos:
            memos[space] = _KeyMemo(node.local.key_of)
        insert, evict = _summary_hooks(node, memos[space])
        caches.append(
            WebCache(
                size, policy=config.policy, on_insert=insert, on_evict=evict
            )
        )
    if len(memos) == 1:
        (probe_keys,) = memos.values()
    else:
        probe_keys = _KeyMemo(shipped.key_of)
    return caches, nodes, shipped, probe_keys


def _notify(
    directory: Dict[str, int], msgs: MessageCounts, bit: int, url: str
) -> None:
    """Cache hook: tell the central *directory* that *url* entered or left.

    *directory* maps a URL to the bitmask of proxies holding it, so the
    server's answer is read like a summary probe, in ascending peer
    order.  A cache inserts only a URL it lacks and evicts only one it
    holds, so flipping the cache's *bit* serves both hooks.  Each
    notification is sized as an exact-directory update of one change.
    """
    directory[url] = directory.get(url, 0) ^ bit
    msgs.update_messages += 1
    msgs.update_bytes += digest_update_bytes(1)


def _delta_bytes(delta, num_bits) -> int:
    """Wire size of one update carrying *delta*.

    The digest sets ship one record per change.  A Bloom delta ships
    its flip records or the whole *num_bits* bit array, as
    :func:`~repro.summaries.codec.ships_whole` picks for every engine.
    """
    if not isinstance(delta, BitFlipDelta):
        return digest_update_bytes(delta.change_count)
    flips = len(delta.flips)
    if ships_whole(flips, num_bits):
        return whole_filter_update_bytes(num_bits)
    return bloom_update_bytes(flips)


def _replay(
    trace: TraceLike,
    scheme: str,
    capacities: List[int],
    *,
    policy: str = "lru",
    route: Optional[Callable[[str], int]] = None,
    ask: str = "none",
    parent: Optional[WebCache] = None,
    caches_remote_hits: bool = True,
    messages: str = "none",
    summary: Optional[SummarySharingConfig] = None,
) -> Tuple[SharingResult, List[WebCache], int]:
    """Replay *trace* through one scheme; see the module docstring.

    *trace* yields five-field records, ``(timestamp, client_id, url,
    size, version)`` in that order -- a :class:`~repro.traces.model.Request`
    or any equal 5-tuple -- and each is unpacked once, by position.
    Proxy *i* has cache ``capacities[i]`` and serves the clients whose id
    modulo the proxy count is *i*.  *ask* is ``"none"``, ``"all"``,
    ``"summaries"`` (of the *summary* configuration) or ``"directory"``;
    *messages* is ``"none"``, ``"icp"`` (a query and reply per peer
    asked), ``"summary"`` (the same, plus the update policy's publishes)
    or ``"directory"`` (a server round per miss, a notification per
    insert and evict).

    Returns the :class:`SharingResult`, the proxies' caches, and how many
    requests *route* sent away from their client's own proxy.
    """
    groups = len(capacities)
    result = SharingResult(
        scheme=scheme,
        trace_name=getattr(trace, "name", "stream"),
        num_proxies=groups,
    )
    msgs = result.messages
    nodes: List[SummaryNode] = []
    directory: Optional[Dict[str, int]] = None
    probe = due = None
    live = False  # threshold 0: no update delay
    if ask == "summaries":
        assert summary is not None
        caches, nodes, shipped, keys = _summary_proxies(capacities, summary)
        probe = shipped.probe
        if messages == "summary":
            due = summary.update_policy.due
            live = getattr(summary.update_policy, "live", False)
    elif ask == "directory":
        directory = {}
        caches = []
        for slot, size in enumerate(capacities):
            hook = partial(_notify, directory, msgs, 1 << slot)
            caches.append(
                WebCache(size, policy=policy, on_insert=hook, on_evict=hook)
            )
    else:
        caches = [WebCache(size, policy=policy) for size in capacities]
    owners = _KeyMemo(route) if route is not None else None
    everyone = (1 << groups) - 1 if ask == "all" else 0
    per_peer = messages in ("icp", "summary")  # a query + reply per peer asked
    fanout = groups - 1
    filter_bits = [getattr(node.local, "num_bits", None) for node in nodes]
    # Peer directories, read in place: asking a peer is one lookup and
    # one version compare.
    lookups = [cache.peek for cache in caches]
    rerouted = 0
    requests = local_hits = remote_hits = 0
    remote_stale_hits = false_hits = false_misses = 0
    bytes_requested = bytes_hit = 0
    asked = publishes = update_bytes = 0

    # One record at a time: nothing a record allocates outlives it.
    for timestamp, client_id, url, size, version in trace:
        g = client_id % groups
        if owners is not None:
            owner = owners[url]
            if owner != g:
                rerouted += 1
            g = owner
        cache = caches[g]
        requests += 1
        bytes_requested += size

        entry = cache.get(url, version, size)
        if entry is not None:
            local_hits += 1
            bytes_hit += entry.size
            continue

        # Who is asked, as a peer bitmask; never the requester.
        if probe is not None:
            mask = probe(keys[url])
        elif directory is not None:
            mask = directory.get(url, 0)
        else:
            mask = everyone
        mask &= ~(1 << g)
        # slots_of(mask), spelled out: a call per miss is the one
        # thing this loop can still save.
        candidates = []
        while mask:
            low = mask & -mask
            candidates.append(low.bit_length() - 1)
            mask ^= low

        fresh = None
        stale_seen = False
        if candidates:
            if per_peer:
                asked += len(candidates)
            for j in candidates:
                entry = lookups[j](url)
                if entry is not None:
                    if entry.version == version:
                        fresh = j
                        break
                    stale_seen = True
        if fresh is not None:
            remote_hits += 1
            bytes_hit += size
            caches[fresh].touch(url)  # serving peer refreshes recency
            if not caches_remote_hits:
                continue  # the single copy stays at the peer
        else:
            if stale_seen:
                remote_stale_hits += 1
            elif candidates and probe is not None:
                false_hits += 1
            if probe is not None:
                # Only a summary can hide a peer's copy: a fresh one
                # anywhere is one the summaries failed to reveal.
                for lookup in lookups:
                    entry = lookup(url)
                    if entry is not None and entry.version == version:
                        false_misses += 1
                        break
            if parent is not None:
                # The parent serves from its cache, or fetches from
                # the origin on the child's behalf and keeps a copy.
                if parent.get(url, version, size) is None:
                    parent.put(url, size, version=version)

        # Cache what was fetched (from a peer, the parent or the
        # origin); the insert may have made an update due.
        cache.put(url, size, version=version)
        if due is not None and (
            live or due(nodes[g], timestamp, cache.num_documents())
        ):
            delta = nodes[g].publish(timestamp)
            shipped.apply_delta(g, delta)
            if live:
                continue  # no update delay: no message to count
            publishes += 1
            update_bytes += _delta_bytes(delta, filter_bits[g]) * fanout

    result.requests = requests
    result.local_hits = local_hits
    result.remote_hits = remote_hits
    result.remote_stale_hits = remote_stale_hits
    result.false_hits = false_hits
    result.false_misses = false_misses
    result.bytes_requested = bytes_requested
    result.bytes_hit = bytes_hit
    # A query and a reply, of one size each, per peer asked.
    msgs.query_messages = msgs.reply_messages = asked
    msgs.query_bytes = msgs.reply_bytes = QUERY_MESSAGE_BYTES * asked
    # The directory's notifications were counted as they went.
    msgs.update_messages += publishes * fanout
    msgs.update_bytes += update_bytes
    if messages == "directory":
        # One query to the server and one reply back per local miss.
        misses = requests - local_hits
        msgs.query_messages = msgs.reply_messages = misses
        msgs.query_bytes = msgs.reply_bytes = QUERY_MESSAGE_BYTES * misses
    result.cache_capacity_bytes = sum(capacities) // groups
    result.local_stale_hits = sum(c.stats.stale_hits for c in caches)
    # Memory per proxy: one remote copy per peer, plus this proxy's own
    # local structure (counters included for Bloom summaries).
    if nodes:
        remote = nodes[0].local.remote_size_bytes()
        local = nodes[0].local.size_bytes()
        result.summary_memory_bytes = remote * fanout + local
    return result, caches, rerouted
