"""The summary-cache proxy prototype.

Each proxy runs two endpoints on localhost:

- a **TCP HTTP front end** serving clients (and peer proxies fetching
  remote hits), backed by an in-memory :class:`~repro.cache.WebCache`
  of document bodies;
- a **UDP ICP endpoint** answering ``ICP_OP_QUERY`` and absorbing
  ``ICP_OP_DIRUPDATE`` messages from peers.

Cooperation modes (:class:`~repro.proxy.config.ProxyMode`):

``no-icp``
    misses go straight to the origin server.
``icp``
    every miss multicasts an ``ICP_OP_QUERY`` to all peers and waits for
    the first HIT (or all MISSes / timeout) -- the overhead pattern
    measured in Section IV.
``sc-icp``
    the paper's protocol: the proxy keeps a local summary of its own
    directory and a remote-summary copy per peer (initialized by the
    first DIRUPDATE received, per Section VI-B), probes the copies on a
    miss, and queries only promising peers.  When the update policy
    fires, the pending delta is drained into MTU-sized,
    representation-tagged DIRUPDATE messages and sent to every peer.
    With ``update_encoding="digest"`` the whole bit array is shipped in
    ICP_OP_DIGEST chunks instead (the Squid cache-digest variant,
    Bloom summaries only).

The summary representation -- Bloom filter, exact MD5 directory, or
server-name list -- is selected purely by ``ProxyConfig.summary``; all
summary state flows through :mod:`repro.summaries`, and the wire
encode/decode dispatch lives in :mod:`repro.summaries.codec`.
"""

from __future__ import annotations

import asyncio
import json
import logging
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple, Union, cast

from repro.cache import WebCache
from repro.core.bfmath import false_positive_probability_exact
from repro.core.hashing import md5_digest
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    render_json,
    render_prometheus,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import (
    NULL_SPAN,
    NULL_SPAN_RING,
    TRACE_HEADER,
    Span,
    SpanRing,
    TraceContext,
    format_id,
)
from repro.errors import ProtocolError, ProxyError, SummaryMismatchError
from repro.protocol.update import DigestAssembler
from repro.protocol.wire import (
    DigestChunk,
    DirUpdate,
    IcpHit,
    IcpMiss,
    IcpQuery,
    SetDirUpdate,
    decode_message,
)
from repro.placement import Placement
from repro.proxy.config import PeerAddress, ProxyConfig, ProxyMode
from repro.summaries import LocalSummary, RemoteSummary, SummaryNode
from repro.summaries import codec
from repro.summaries.bloom import BloomRemote, BloomSummary
from repro.proxy.http import (
    HttpRequest,
    HttpResponse,
    read_request,
    read_response,
    response_head,
    stream_body,
    write_request,
    write_response,
)
from repro.proxy.pool import ConnectionPool, PooledConnection
from repro.sanitizer import (
    GuardedConnectionPool,
    GuardedPlacement,
    GuardedSummaryNode,
    Sanitizer,
    default_sanitizer,
)

logger = logging.getLogger(__name__)

#: Request header marking a placement-routed peer fetch: the value is
#: the requesting proxy's name.  The owner serves from cache or fetches
#: the origin itself -- it never re-forwards a marked request, so a
#: transient membership-view disagreement cannot loop a request around
#: the ring.
FORWARD_HEADER = "X-SC-Forward"

#: Response header naming the proxy that answered a forwarded fetch.
OWNER_HEADER = "X-SC-Owner"

#: Histogram bounds for request-phase timings (0.1 ms .. 10 s; ICP
#: timeouts sit around 2 s and origin delays around 1 s).
_PHASE_BUCKETS = (
    1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0,
)


class _ProxyMetrics:
    """The proxy's registry instruments: the only place it counts.

    Counter names follow Prometheus conventions (``*_total`` suffixes).
    Attributes named like a :class:`ProxyStats` field are the counters
    that view reads, so ``GET /metrics`` and ``proxy.stats`` cannot
    disagree.  Scrape-time gauges (cache occupancy, summary fill) read
    the live structures via callbacks and cost nothing between scrapes.
    """

    __slots__ = (
        "http_requests", "local_hits", "remote_hits",
        "remote_fetch_failures", "false_query_rounds", "origin_fetches",
        "bytes_served", "icp_queries_sent", "icp_queries_received",
        "icp_replies_sent", "icp_replies_received", "icp_timeouts",
        "dirupdates_sent", "dirupdates_received", "dirupdate_rejects",
        "summary_resizes", "udp_sent", "udp_received", "peer_served_requests",
        "phase_seconds", "connections_open", "connections_reused",
        "backpressure_waits", "peer_forwards", "peer_forward_failures",
        "placement_rebalances", "placement_entries_invalidated",
    )

    def __init__(self, registry: MetricsRegistry, representation: str) -> None:
        c = registry.counter
        # Summary-traffic counters carry the representation so a scrape
        # of a mixed cluster shows which wire encoding each proxy runs.
        rep = {"representation": representation}
        self.http_requests = c(
            "proxy_http_requests_total", "client HTTP requests"
        )
        self.local_hits = c(
            "proxy_local_hits_total", "requests served from the local cache"
        )
        self.remote_hits = c(
            "proxy_remote_hits_total", "requests served from a peer cache"
        )
        self.remote_fetch_failures = c(
            "proxy_remote_fetch_failures_total",
            "peer fetches that no longer held the document",
        )
        self.false_query_rounds = c(
            "proxy_icp_false_hits_total",
            "query rounds where no queried peer held the document",
        )
        self.origin_fetches = c(
            "proxy_origin_fetches_total", "documents fetched from the origin"
        )
        self.bytes_served = c(
            "proxy_bytes_served_total", "response body bytes to clients"
        )
        self.icp_queries_sent = c(
            "proxy_icp_queries_sent_total", "ICP_OP_QUERY datagrams sent"
        )
        self.icp_queries_received = c(
            "proxy_icp_queries_received_total",
            "ICP_OP_QUERY datagrams received",
        )
        self.icp_replies_sent = c(
            "proxy_icp_replies_sent_total", "ICP HIT/MISS replies sent"
        )
        self.icp_replies_received = c(
            "proxy_icp_replies_received_total", "ICP HIT/MISS replies received"
        )
        self.icp_timeouts = c(
            "proxy_icp_timeouts_total", "query rounds ended by timeout"
        )
        self.dirupdates_sent = c(
            "proxy_dirupdates_sent_total",
            "DIRUPDATE/DIGEST datagrams sent to peers",
            labels=rep,
        )
        self.dirupdates_received = c(
            "proxy_dirupdates_received_total",
            "DIRUPDATE/DIGEST datagrams received from peers",
            labels=rep,
        )
        self.dirupdate_rejects = c(
            "proxy_dirupdate_rejects_total",
            "DIRUPDATEs rejected for representation/geometry mismatch",
            labels=rep,
        )
        self.summary_resizes = c(
            "proxy_summary_resizes_total", "summary rebuilds",
            labels=rep,
        )
        self.udp_sent = c("proxy_udp_sent_total", "UDP datagrams sent")
        self.udp_received = c(
            "proxy_udp_received_total", "UDP datagrams received"
        )
        self.peer_served_requests = c(
            "proxy_peer_served_total", "proxy-to-proxy fetches served"
        )
        # Placement family (carp cooperation: owner routing and
        # membership rebalancing).
        self.peer_forwards = c(
            "proxy_peer_forwards_total",
            "misses forwarded to the object's placement owner",
        )
        self.peer_forward_failures = c(
            "proxy_peer_forward_failures_total",
            "owner forwards that failed and fell over to the next "
            "replica or the origin",
        )
        self.placement_rebalances = c(
            "placement_rebalances_total",
            "membership changes applied to the placement ring",
        )
        self.placement_entries_invalidated = c(
            "placement_entries_invalidated_total",
            "cached entries invalidated because a membership change "
            "moved their placement elsewhere",
        )
        # Connection-lifecycle family (keep-alive data plane).
        self.connections_open = registry.gauge(
            "proxy_connections_open", "client connections currently open"
        )
        self.connections_reused = c(
            "proxy_connections_reused_total",
            "origin/peer fetches served over a pooled connection",
        )
        self.backpressure_waits = c(
            "proxy_backpressure_waits_total",
            "drain() waits taken because a client write buffer exceeded "
            "the in-flight ceiling",
        )
        self.phase_seconds = {
            phase: registry.histogram(
                "proxy_request_phase_seconds",
                "wall time of one request phase",
                labels={"phase": phase},
                buckets=_PHASE_BUCKETS,
            )
            for phase in ("total", "icp_round", "peer_fetch", "origin_fetch")
        }


class _CounterView:
    """Descriptor reading the :class:`_ProxyMetrics` counter of its name."""

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, stats: "ProxyStats", owner: object = None) -> int:
        return int(getattr(stats._metrics, self._name).value)


class ProxyStats:
    """Read-only live view of the counters the paper measures per proxy.

    Nothing is stored here: every field reads the proxy's own registry
    counter of the same name in :class:`_ProxyMetrics`.  UDP counters
    correspond to the paper's ``netstat`` UDP datagram counts;
    ``false_query_rounds`` are SC-ICP query rounds in which no queried
    peer actually held the document (false hits).
    """

    __slots__ = ("_metrics",)

    http_requests = _CounterView()
    local_hits = _CounterView()
    remote_hits = _CounterView()
    remote_fetch_failures = _CounterView()
    false_query_rounds = _CounterView()
    origin_fetches = _CounterView()
    bytes_served = _CounterView()
    icp_queries_sent = _CounterView()
    icp_queries_received = _CounterView()
    icp_replies_sent = _CounterView()
    icp_replies_received = _CounterView()
    dirupdates_sent = _CounterView()
    dirupdates_received = _CounterView()
    dirupdate_rejects = _CounterView()
    summary_resizes = _CounterView()
    udp_sent = _CounterView()
    udp_received = _CounterView()
    peer_served_requests = _CounterView()
    peer_forwards = _CounterView()
    peer_forward_failures = _CounterView()
    placement_rebalances = _CounterView()
    placement_entries_invalidated = _CounterView()

    def __init__(self, metrics: _ProxyMetrics) -> None:
        self._metrics = metrics

    @property
    def hit_ratio(self) -> float:
        """Local + remote hits over client requests."""
        if not self.http_requests:
            return 0.0
        return (self.local_hits + self.remote_hits) / self.http_requests


class _PeerState:
    """What a proxy knows about one neighbour."""

    __slots__ = ("address", "summary", "alive", "assembler")

    def __init__(self, address: PeerAddress) -> None:
        self.address = address
        #: Remote summary copy (representation-tagged by the wire);
        #: ``None`` until the first DIRUPDATE arrives ("The structure is
        #: initialized when the first summary update message is received
        #: from the neighbor").
        self.summary: Optional[RemoteSummary] = None
        self.alive = True
        #: Reassembles whole-filter transfers in digest mode.
        self.assembler = DigestAssembler()


class _IcpProtocol(asyncio.DatagramProtocol):
    """Datagram glue delivering packets to the owning proxy."""

    def __init__(self, proxy: "SummaryCacheProxy") -> None:
        self._proxy = proxy
        self.transport: Optional[asyncio.DatagramTransport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.DatagramTransport, transport)

    def datagram_received(
        self, data: bytes, addr: Tuple[str, int]
    ) -> None:
        self._proxy._on_datagram(data, addr)


class _PendingQuery:
    """Bookkeeping for one outstanding ICP query round."""

    __slots__ = ("future", "outstanding", "span")

    def __init__(
        self, outstanding: Set[Tuple[str, int]], span: Span
    ) -> None:
        self.future: "asyncio.Future[Optional[Tuple[str, int]]]" = (
            asyncio.get_event_loop().create_future()
        )
        self.outstanding = outstanding
        #: The round's ``icp.round`` span; replies land as its events.
        self.span = span


class SummaryCacheProxy:
    """One prototype proxy instance.

    Parameters
    ----------
    config:
        Ports, mode, cache size, summary geometry, update threshold.
    origin_address:
        ``(host, port)`` of the origin server all misses go to.  (The
        experiments use a single origin; a resolver callable could
        replace this without touching the protocol paths.)
    """

    def __init__(
        self,
        config: ProxyConfig,
        origin_address: Tuple[str, int],
        sanitizer: Optional[Sanitizer] = None,
    ) -> None:
        self.config = config
        self.origin_address = origin_address
        #: Interleaving sanitizer: explicit instance, the process-wide
        #: one when ``SC_SANITIZE=1``, else None (zero overhead).
        self._san = (
            sanitizer if sanitizer is not None else default_sanitizer()
        )
        #: Per-proxy metrics registry backing ``GET /metrics``.
        self.registry = MetricsRegistry()
        self._m = _ProxyMetrics(self.registry, config.summary.kind)
        self.stats = ProxyStats(self._m)
        #: Span ring backing ``GET /trace`` and the cluster aggregator;
        #: the shared null ring when tracing is disabled (no spans
        #: retained, no trace context on any wire).
        if config.trace_enabled:
            dropped = self.registry.counter(
                "trace_ring_dropped_total",
                "spans dropped from a full trace ring",
            )
            self.spans = SpanRing(
                capacity=config.trace_capacity, on_drop=dropped.inc
            )
        else:
            self.spans = NULL_SPAN_RING
        self._bodies: Dict[str, bytes] = {}
        #: The local summary plus its update bookkeeping.  The proxy
        #: never tracks a shipped copy (peers hold the remote copies),
        #: so ``track_shipped=False``.
        self._node = SummaryNode(
            config.summary,
            config.cache_capacity,
            doc_size=config.expected_doc_size,
            track_shipped=False,
        )
        self._update_policy = config.effective_update_policy()
        self._cache = WebCache(
            config.cache_capacity,
            max_object_size=config.max_object_size,
            on_insert=self._on_cache_insert,
            on_evict=self._on_cache_evict,
            # The live proxy resizes and resyncs its summary, so digests
            # stored at insert time spare a full directory re-hash then.
            store_digests=True,
        )
        #: Keep-alive connections to origins and peers, reused across
        #: sequential misses (created/reused counts feed the
        #: connection-lifecycle metric family).
        self._pool = ConnectionPool(
            max_idle_per_host=config.pool_size,
            idle_timeout=config.pool_idle_timeout,
            on_reuse=self._m.connections_reused.inc,
        )
        self._peers: Dict[Tuple[str, int], _PeerState] = {}
        self._peers_by_name: Dict[str, _PeerState] = {}
        #: This proxy's view of cluster-wide object placement.  Always
        #: maintained (membership tracking is cheap); misses route by
        #: owner only when the cooperation policy says so.
        self._placement = Placement(
            config.name,
            policy=config.cooperation,
            replication=config.replication,
        )
        if self._san is not None:
            # Wrap the shared mutable state in interleaving-check
            # guards.  The guards are structural stand-ins (full method
            # surface, extra recording), hence the casts.
            self._node = cast(
                SummaryNode,
                GuardedSummaryNode(self._node, self._san, config.name),
            )
            self._pool = cast(
                ConnectionPool,
                GuardedConnectionPool(self._pool, self._san, config.name),
            )
            self._placement = cast(
                Placement,
                GuardedPlacement(self._placement, self._san, config.name),
            )
            violations = self.registry.counter(
                "sanitizer_violations_total",
                "interleaving violations the runtime sanitizer detected",
            )
            # The process-wide sanitizer is shared by every proxy in
            # the process; count only violations on *this* proxy's
            # guarded objects (keys are "<proxy name>.<object>").
            self._san.add_listener(
                lambda v: (
                    violations.inc()
                    if v.key.startswith(config.name + ".")
                    else None
                )
            )
        self._pending: Dict[int, _PendingQuery] = {}
        self._request_counter = 0
        #: Open client-side connections, aborted on :meth:`stop` so a
        #: stopped proxy actually disappears (keep-alive handler loops
        #: would otherwise keep serving peers that pooled a connection
        #: before the listening socket closed).
        self._client_writers: Set[asyncio.StreamWriter] = set()
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._icp: Optional[_IcpProtocol] = None
        # Scrape-time gauges: evaluated when /metrics renders, free
        # between scrapes.  cache_hits/requests mirror CacheStats so a
        # scrape can be cross-checked against the in-process counters.
        g = self.registry.gauge
        g("proxy_cache_entries", "documents cached").set_function(
            lambda: len(self._cache)
        )
        g("proxy_cache_used_bytes", "bytes cached").set_function(
            lambda: self._cache.used_bytes
        )
        g("proxy_cache_capacity_bytes", "cache capacity").set_function(
            lambda: self._cache.capacity_bytes
        )
        g("proxy_cache_hits", "CacheStats fresh hits").set_function(
            lambda: self._cache.stats.hits
        )
        g("proxy_cache_requests", "CacheStats lookups").set_function(
            lambda: self._cache.stats.requests
        )
        g("proxy_cache_evictions", "CacheStats evictions").set_function(
            lambda: self._cache.stats.evictions
        )
        g("proxy_summary_fill_ratio", "own summary fill ratio").set_function(
            lambda: self._node.local.fill_ratio()
        )
        g("proxy_peers", "configured peers").set_function(
            lambda: len(self._peers)
        )
        g(
            "placement_members",
            "ring members in this proxy's placement view",
        ).set_function(lambda: len(self._placement.members))
        g("proxy_pending_queries", "outstanding ICP query rounds").set_function(
            lambda: len(self._pending)
        )
        g("proxy_pool_idle_connections", "idle pooled upstream connections").set_function(
            lambda: self._pool.total_idle
        )
        g(
            "proxy_summary_predicted_fp_rate",
            "Fig. 4 predicted false-positive rate of the local summary "
            "at its current occupancy",
        ).set_function(self._predicted_fp_rate)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the HTTP and ICP endpoints."""
        loop = asyncio.get_event_loop()
        self._http_server = await asyncio.start_server(
            self._handle_http, self.config.host, self.config.http_port
        )
        _transport, protocol = await loop.create_datagram_endpoint(
            lambda: _IcpProtocol(self),
            local_addr=(self.config.host, self.config.icp_port),
        )
        self._icp = protocol
        logger.info(
            "proxy=%s started mode=%s http_port=%d icp_port=%d",
            self.config.name,
            self.config.mode.value,
            self.http_port,
            self.icp_port,
        )

    async def stop(self) -> None:
        """Shut both endpoints down."""
        if self._http_server is not None:
            self._http_server.close()
            for writer in list(self._client_writers):
                writer.transport.abort()
            self._client_writers.clear()
            await self._http_server.wait_closed()
            self._http_server = None
        if self._icp is not None and self._icp.transport is not None:
            self._icp.transport.close()
            self._icp = None
        await self._pool.close()
        for pending in self._pending.values():
            if not pending.future.done():
                pending.future.cancel()
        self._pending.clear()
        logger.info("proxy=%s stopped", self.config.name)

    @property
    def http_port(self) -> int:
        """Bound HTTP port (valid after :meth:`start`)."""
        if self._http_server is None:
            raise ProxyError(f"{self.config.name}: proxy is not running")
        return self._http_server.sockets[0].getsockname()[1]

    @property
    def icp_port(self) -> int:
        """Bound ICP/UDP port (valid after :meth:`start`)."""
        if self._icp is None or self._icp.transport is None:
            raise ProxyError(f"{self.config.name}: proxy is not running")
        return self._icp.transport.get_extra_info("sockname")[1]

    def address(self) -> PeerAddress:
        """This proxy's address record, for handing to its peers."""
        return PeerAddress(
            name=self.config.name,
            host=self.config.host,
            http_port=self.http_port,
            icp_port=self.icp_port,
        )

    def set_peers(self, peers: List[PeerAddress]) -> None:
        """Install the neighbour set (call after all proxies started)."""
        self._peers = {peer.icp_addr: _PeerState(peer) for peer in peers}
        self._peers_by_name = {
            state.address.name: state for state in self._peers.values()
        }
        placement = Placement(
            self.config.name,
            [peer.name for peer in peers],
            policy=self.config.cooperation,
            replication=self.config.replication,
        )
        if self._san is not None:
            placement = cast(
                Placement,
                GuardedPlacement(placement, self._san, self.config.name),
            )
        self._placement = placement

    def add_peer(self, peer: PeerAddress) -> None:
        """Admit one peer at runtime (membership join).

        The placement ring is re-derived and every locally cached entry
        the newcomer now owns is invalidated (the HTTP subset has no
        push verb to migrate bodies, so displaced entries are dropped
        and re-placed by demand).  No-op for an already-known peer.
        """
        if peer.name in self._peers_by_name:
            return
        state = _PeerState(peer)
        self._peers[peer.icp_addr] = state
        self._peers_by_name[peer.name] = state
        self._rebalance("join", peer.name)

    def remove_peer(self, name: str, reason: str = "leave") -> None:
        """Retire the peer called *name* (membership leave or failure).

        By the rendezvous property a leave never displaces a survivor's
        entries; the rebalance is still recorded (span + metrics) so a
        cluster trace shows every membership transition.
        """
        state = self._peers_by_name.pop(name, None)
        if state is None:
            return
        self._peers.pop(state.address.icp_addr, None)
        self._rebalance(reason, name)

    def _rebalance(self, reason: str, member: str) -> None:
        """Apply one membership change to the placement ring.

        Emits the ``placement.rebalance`` span and increments the
        rebalance/invalidation counters; displaced cache entries are
        removed (which also clears their summary bits and bodies via
        the eviction callback).
        """
        span = self.spans.start_span(
            "placement.rebalance",
            proxy=self.config.name,
            member=member,
            reason=reason,
        )
        items = list(self._cache.digests().items())
        if reason == "join":
            displaced = self._placement.add_member(member, items)
        else:
            displaced = self._placement.remove_member(member, items)
        for url in displaced:
            self._cache.remove(url)
        self._m.placement_rebalances.inc()
        if displaced:
            self._m.placement_entries_invalidated.inc(len(displaced))
        span.set(
            members=len(self._placement.members),
            invalidated=len(displaced),
        ).end()
        logger.info(
            "proxy=%s placement rebalance reason=%s member=%s "
            "members=%d invalidated=%d",
            self.config.name,
            reason,
            member,
            len(self._placement.members),
            len(displaced),
        )

    def reset_peer(self, icp_addr: Tuple[str, int]) -> None:
        """Forget a peer's summary (Squid-style failure/recovery reinit)."""
        state = self._peers.get(icp_addr)
        if state is not None:
            state.summary = None

    # ------------------------------------------------------------------
    # Summary attribution
    # ------------------------------------------------------------------

    def _predicted_fp_rate(self) -> float:
        """Fig. 4's predicted false-positive rate for the local summary.

        For a Bloom summary this is the exact ``(1-(1-1/m)^(kn))^k``
        at the summary's live geometry and the cache's current document
        count -- the number the measured false-hit ratio is compared
        against in the cluster aggregator's attribution report.  Exact
        and server-name directories have no false positives by
        construction (server-name summaries trade them for *aliasing*,
        which the measured ratio still captures), so they report 0.
        """
        local = self._node.local
        if not isinstance(local, BloomSummary):
            return 0.0
        return false_positive_probability_exact(
            local.num_bits, len(self._cache), local.config.num_hashes
        )

    def _summary_attributes(self) -> Dict[str, object]:
        """The summary representation/geometry a lookup decision used.

        Recorded on every completed ``summary.lookup`` span so a false
        hit in a fused cluster trace is attributable to the exact
        filter configuration that produced it.
        """
        attrs: Dict[str, object] = {
            "representation": self.config.summary.kind,
            "predicted_fp_rate": self._predicted_fp_rate(),
        }
        local = self._node.local
        if isinstance(local, BloomSummary):
            attrs["num_bits"] = local.num_bits
            attrs["num_hashes"] = local.config.num_hashes
            attrs["load_factor"] = self.config.summary.load_factor
        return attrs

    # ------------------------------------------------------------------
    # Cache bookkeeping
    # ------------------------------------------------------------------

    def _on_cache_insert(self, url: str) -> None:
        self._node.on_insert(url)

    def _on_cache_evict(self, url: str) -> None:
        self._node.on_evict(url)
        self._bodies.pop(url, None)

    def _store(self, url: str, body: bytes) -> None:
        """Admit a fetched document and maybe broadcast an update."""
        self._bodies[url] = body
        self._cache.put(url, len(body))
        if url not in self._cache:
            self._bodies.pop(url, None)  # rejected (too large)
        if self.config.mode is ProxyMode.SC_ICP:
            self._maybe_resize_summary()
            self._maybe_broadcast_update()

    def _maybe_resize_summary(self) -> None:
        """Rebuild the summary when the cache outruns its expected size.

        A Bloom summary was sized for ``cache_capacity /
        expected_doc_size`` documents; if the cache holds far more
        (documents smaller than anticipated), the effective load factor
        -- and with it the false-hit rate at every peer -- degrades.
        Rebuilding at double the bits from the live directory restores
        it; peers resync via a whole-filter digest (a delta cannot
        describe a geometry change).  Set representations never report
        themselves overloaded, so this is a no-op for them.
        """
        threshold = self.config.resize_threshold
        if threshold <= 0:
            return
        if not self._node.local.overloaded(len(self._cache), threshold):
            return
        self._node.rebuild(
            self._cache.urls(), perf_counter(), digests=self._cache.digests()
        )
        self._m.summary_resizes.inc()
        logger.info(
            "proxy=%s summary resized to %d bits (%d cached documents)",
            self.config.name,
            getattr(self._node.local, "num_bits", 0),
            len(self._cache),
        )
        self._broadcast_digest()

    def _broadcast_digest(self) -> None:
        """Ship the whole summary to every peer (resync after a resize)."""
        if not self._peers or self._icp is None:
            return
        transport = self._icp.transport
        messages = codec.whole_summary_messages(
            self._node.local, mtu=self.config.mtu
        )
        for peer_addr, state in self._peers.items():
            if not state.alive:
                continue
            for message in messages:
                transport.sendto(message.encode(), peer_addr)
                self._m.dirupdates_sent.inc()
                self._m.udp_sent.inc()

    def _maybe_broadcast_update(self) -> None:
        now = perf_counter()
        if not self._node.due_for_update(
            self._update_policy, now, len(self._cache)
        ):
            return
        delta = self._node.publish(now)
        if delta.is_empty() or not self._peers or self._icp is None:
            return
        drain_span = self.spans.start_span(
            "dirupdate.drain",
            proxy=self.config.name,
            records=delta.change_count,
            representation=self.config.summary.kind,
            encoding=self.config.update_encoding,
            peers=sum(1 for s in self._peers.values() if s.alive),
        )
        if self.config.update_encoding == "digest":
            # Squid cache-digest style: ship the whole bit array.
            messages = codec.whole_summary_messages(
                self._node.local, mtu=self.config.mtu
            )
        else:
            messages = codec.delta_messages(
                self._node.local, delta, mtu=self.config.mtu
            )
        transport = self._icp.transport
        for peer_addr, state in self._peers.items():
            if not state.alive:
                continue
            for message in messages:
                transport.sendto(message.encode(), peer_addr)
                self._m.dirupdates_sent.inc()
                self._m.udp_sent.inc()
        drain_span.set(messages=len(messages)).end()
        logger.debug(
            "proxy=%s dirupdate drained records=%d messages=%d",
            self.config.name,
            delta.change_count,
            len(messages),
        )

    # ------------------------------------------------------------------
    # ICP datagram path
    # ------------------------------------------------------------------

    def _on_datagram(self, data: bytes, addr: Tuple[str, int]) -> None:
        self._m.udp_received.inc()
        try:
            message = decode_message(data)
        except ProtocolError:
            return  # garbage on the wire is dropped, never fatal
        if isinstance(message, IcpQuery):
            self._handle_query(message, addr)
        elif isinstance(message, (IcpHit, IcpMiss)):
            self._handle_reply(message, addr)
        elif isinstance(message, (DirUpdate, SetDirUpdate)):
            self._handle_dir_update(message, addr)
        elif isinstance(message, DigestChunk):
            self._handle_digest_chunk(message, addr)

    def _handle_query(
        self, query: IcpQuery, addr: Tuple[str, int]
    ) -> None:
        self._m.icp_queries_received.inc()
        if self._icp is None or self._icp.transport is None:
            return
        hit = query.url in self._cache
        if query.trace_id:
            # The datagram carried trace context (Options/Option Data),
            # so this peer's verdict joins the originating request's
            # trace -- the cross-process link the cluster aggregator
            # reassembles.
            self.spans.start_span(
                "icp.query",
                trace_id=query.trace_id,
                parent_id=query.parent_span,
                proxy=self.config.name,
                url=query.url,
                hit=hit,
            ).end()
        reply: Union[IcpHit, IcpMiss]
        if hit:
            reply = IcpHit(
                url=query.url, request_number=query.request_number
            )
        else:
            reply = IcpMiss(
                url=query.url, request_number=query.request_number
            )
        self._icp.transport.sendto(reply.encode(), addr)
        self._m.icp_replies_sent.inc()
        self._m.udp_sent.inc()

    def _handle_reply(
        self, reply: Union[IcpHit, IcpMiss], addr: Tuple[str, int]
    ) -> None:
        self._m.icp_replies_received.inc()
        pending = self._pending.get(reply.request_number)
        if pending is None or pending.future.done():
            return
        pending.span.add_event(
            "icp.reply",
            peer=f"{addr[0]}:{addr[1]}",
            hit=isinstance(reply, IcpHit),
        )
        if isinstance(reply, IcpHit):
            pending.future.set_result(addr)
            return
        pending.outstanding.discard(addr)
        if not pending.outstanding:
            pending.future.set_result(None)

    def _handle_dir_update(
        self,
        update: Union[DirUpdate, SetDirUpdate],
        addr: Tuple[str, int],
    ) -> None:
        """Patch the sender's remote copy from a (Set)DirUpdate.

        A mismatched update -- wrong representation, or a Bloom delta
        whose geometry disagrees with the copy (the peer resized and
        this datagram predates the digest resync) -- is rejected
        cleanly: the copy is left untouched and the peer's digest (or
        pending-everything delta after a set rebuild) resynchronizes it.
        """
        self._m.dirupdates_received.inc()
        state = self._peers.get(addr)
        if state is None:
            return  # update from an unconfigured peer
        try:
            state.summary, changed = codec.apply_update(
                state.summary, update
            )
        except SummaryMismatchError as exc:
            self._m.dirupdate_rejects.inc()
            self.spans.start_span(
                "dirupdate.reject",
                proxy=self.config.name,
                peer=state.address.name,
                reason=str(exc),
            ).end(status="error")
            logger.debug(
                "proxy=%s rejected dirupdate from peer=%s: %s",
                self.config.name,
                state.address.name,
                exc,
            )
            return
        self.spans.start_span(
            "dirupdate.apply",
            proxy=self.config.name,
            peer=state.address.name,
            records=update.change_count,
            changed=changed,
        ).end()

    def _handle_digest_chunk(
        self, chunk: DigestChunk, addr: Tuple[str, int]
    ) -> None:
        """Feed a whole-filter chunk to the peer's reassembler."""
        self._m.dirupdates_received.inc()
        state = self._peers.get(addr)
        if state is None:
            return
        completed = state.assembler.add(chunk)
        if completed is not None:
            state.summary = BloomRemote(completed)
            self.spans.start_span(
                "digest.apply",
                proxy=self.config.name,
                peer=state.address.name,
                bits=completed.num_bits,
            ).end()

    # ------------------------------------------------------------------
    # HTTP path
    # ------------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection's request loop (keep-alive).

        Requests are read and answered strictly in order, so a
        pipelining client gets its responses in request order; the
        read-ahead is bounded by the stream buffers, and
        ``max_requests_per_connection`` (when set) forces a
        ``Connection: close`` after that many responses.  The loop ends
        on ``Connection: close``, clean client EOF, the idle timeout,
        or a framing error (answered with a final 400).
        """
        self._m.connections_open.inc()
        self._client_writers.add(writer)
        writer.transport.set_write_buffer_limits(
            high=self.config.max_inflight_bytes
        )
        served = 0
        try:
            while True:
                try:
                    if self.config.idle_timeout > 0:
                        request = await asyncio.wait_for(
                            read_request(reader),
                            timeout=self.config.idle_timeout,
                        )
                    else:
                        request = await read_request(reader)
                except asyncio.TimeoutError:
                    break  # idle (or glacially slow) connection reaped
                except ProtocolError:
                    write_response(writer, 400, keep_alive=False)
                    await writer.drain()
                    break
                if request is None:
                    break  # client finished its keep-alive conversation
                served += 1
                keep_alive = request.keep_alive
                if (
                    self.config.max_requests_per_connection > 0
                    and served >= self.config.max_requests_per_connection
                ):
                    keep_alive = False
                # SC007 pairs reads in one dispatched handler with
                # writes in the *next* iteration's handler; each
                # iteration is an independent request that is supposed
                # to see the then-current state, so the cross-request
                # "window" is serial request handling, not a race.
                if request.url.partition("?")[0] == "/metrics":
                    await self._serve_metrics(request, writer, keep_alive)
                elif request.url.partition("?")[0] == "/trace":
                    await self._serve_trace(request, writer, keep_alive)
                elif request.header("x-only-if-cached"):
                    await self._serve_peer(  # sc-lint: disable=SC007
                        request, writer, keep_alive
                    )
                elif request.header("x-sc-forward"):
                    await self._serve_forward(  # sc-lint: disable=SC007
                        request, writer, keep_alive
                    )
                else:
                    await self._serve_client(  # sc-lint: disable=SC007
                        request, writer, keep_alive
                    )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._m.connections_open.dec()
            self._client_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _serve_metrics(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        keep_alive: bool = False,
    ) -> None:
        """Serve the registry: Prometheus text, or JSON on request.

        ``GET /metrics`` returns the text exposition format;
        ``GET /metrics?format=json`` (or an ``Accept: application/json``
        header) returns the JSON snapshot with the proxy's identity and
        the most recent trace events attached.
        """
        query = request.url.partition("?")[2]
        wants_json = (
            "format=json" in query
            or "json" in request.header("accept")
        )
        if wants_json:
            body = render_json(
                self.registry,
                name=self.config.name,
                mode=self.config.mode.value,
                spans=self.spans.as_dicts()[-64:],
                trace_ring_dropped=self.spans.dropped,
            ).encode("utf-8")
            content_type = "application/json"
        else:
            body = render_prometheus(self.registry).encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        write_response(
            writer,
            200,
            body,
            headers={"Content-Type": content_type},
            keep_alive=keep_alive,
        )
        await writer.drain()

    async def _serve_trace(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        keep_alive: bool = False,
    ) -> None:
        """Serve the span ring as JSON (the cluster aggregator's feed).

        ``GET /trace`` returns every retained span, oldest first;
        ``GET /trace?trace=<8-hex-id>`` filters to one trace.
        """
        query = request.url.partition("?")[2]
        spans = self.spans.as_dicts()
        for part in query.split("&"):
            key, sep, value = part.partition("=")
            if key == "trace" and sep:
                wanted = value.lower()
                spans = [s for s in spans if s["trace_id"] == wanted]
        payload = {
            "name": self.config.name,
            "enabled": self.spans.enabled,
            "capacity": self.spans.capacity,
            "dropped": self.spans.dropped,
            "spans": spans,
        }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        write_response(
            writer,
            200,
            body,
            headers={"Content-Type": "application/json"},
            keep_alive=keep_alive,
        )
        await writer.drain()

    async def _serve_peer(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        keep_alive: bool = False,
    ) -> None:
        """Serve a proxy-to-proxy fetch: cache or 504, never recurse."""
        body = self._lookup_local(request.url)
        ctx = TraceContext.parse(request.header(TRACE_HEADER))
        if ctx is not None:
            # The fetching proxy put its peer.fetch context on the
            # request, so this side's verdict joins the same trace.
            self.spans.start_span(
                "peer.serve",
                trace_id=ctx.trace_id,
                parent_id=ctx.span_id,
                proxy=self.config.name,
                url=request.url,
                hit=body is not None,
            ).end()
        if body is None:
            write_response(
                writer, 504, headers={"X-Cache": "MISS"},
                keep_alive=keep_alive,
            )
        else:
            self._m.peer_served_requests.inc()
            await self._stream_response(
                writer, body, {"X-Cache": "HIT"}, keep_alive
            )
        await writer.drain()

    async def _serve_forward(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        keep_alive: bool = False,
    ) -> None:
        """Serve a placement-routed peer fetch (the owner side).

        The requester marked the request with ``X-SC-Forward``, so this
        proxy is (in the requester's view) the URL's owner: serve from
        cache, or fetch the origin and store -- but **never re-forward**,
        so a membership-view disagreement between proxies cannot loop a
        request around the ring.  An origin failure answers 502 to the
        *peer* (which falls back to its own origin path); clients never
        see it.
        """
        url = request.url
        requester = request.header("x-sc-forward")
        ctx = TraceContext.parse(request.header(TRACE_HEADER))
        # The with-statement ends the span on *every* exit -- including
        # a client disconnect cancelling this handler mid-await -- so a
        # dropped peer request never strands a live span in the ring.
        with self.spans.start_span(
            "peer.serve",
            trace_id=ctx.trace_id if ctx is not None else None,
            parent_id=ctx.span_id if ctx is not None else 0,
            proxy=self.config.name,
            url=url,
            requester=requester,
            forwarded=True,
        ) as span:
            if self._san is not None:
                self._san.begin_request(
                    format_id(span.trace_id) if span.trace_id else ""
                )
            body = self._lookup_local(url)
            source = "HIT"
            if body is None:
                source = "MISS"
                try:
                    body = await self._fetch_from_origin(
                        url, request.header("x-size"), span
                    )
                except (
                    ProxyError, ConnectionError, ProtocolError, OSError
                ):
                    span.set(source=source).end(status="error")
                    write_response(
                        writer,
                        502,
                        headers={OWNER_HEADER: self.config.name},
                        keep_alive=keep_alive,
                    )
                    await writer.drain()
                    return
                # Concurrent misses for the same URL each fetch and
                # store; the store is idempotent over identical origin
                # bodies, so the lost-update SC007 sees is benign
                # (collapsing duplicate fetches is a deliberate
                # non-goal for idempotent GETs).
                self._store(url, body)  # sc-lint: disable=SC007
            self._m.peer_served_requests.inc()
            span.set(source=source, bytes=len(body)).end()
        await self._stream_response(
            writer,
            body,
            {"X-Cache": source, OWNER_HEADER: self.config.name},
            keep_alive,
        )
        await writer.drain()

    async def _serve_client(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        keep_alive: bool = False,
    ) -> None:
        self._m.http_requests.inc()
        url = request.url
        size_hint = request.header("x-size")
        # The root span of this request's trace: continue the client's
        # context when the request carried an X-SC-Trace header, start a
        # fresh trace otherwise.  (With tracing disabled this is the
        # null span, whose zero trace id suppresses every propagation
        # site below.)
        ctx = TraceContext.parse(request.header(TRACE_HEADER))
        with self.spans.start_span(
            "http.request",
            trace_id=ctx.trace_id if ctx is not None else None,
            parent_id=ctx.span_id if ctx is not None else 0,
            proxy=self.config.name,
            url=url,
        ) as root:
            if self._san is not None:
                # New logical scope (read markers from the previous
                # request on this keep-alive task are not ours), plus
                # trace attribution for any violation we cause.
                self._san.begin_request(
                    format_id(root.trace_id) if root.trace_id else ""
                )
            start = perf_counter()

            body = self._lookup_local(url)
            source = "HIT"
            if body is None:
                # Two tasks missing on the same URL race to fetch and
                # store; the duplicate store of an identical body is
                # benign for idempotent GETs (see _serve_forward), so
                # the miss is deliberately not single-flighted.
                body, source = await self._miss_path(  # sc-lint: disable=SC007
                    url, size_hint, root
                )
            else:
                self._m.local_hits.inc()

            self._m.bytes_served.inc(len(body))
            self._m.phase_seconds["total"].observe(perf_counter() - start)
            root.add_event("http.served", source=source, bytes=len(body))
            root.set(source=source, bytes=len(body)).end()
        headers = {"X-Cache": source}
        if root.trace_id:
            # Echo the trace context so the client learns which trace
            # its request joined (the load driver records it).
            headers[TRACE_HEADER] = root.context().header_value()
        await self._stream_response(writer, body, headers, keep_alive)
        await writer.drain()

    async def _stream_response(
        self,
        writer: asyncio.StreamWriter,
        body: bytes,
        headers: Dict[str, str],
        keep_alive: bool,
    ) -> None:
        """Write a 200 head, then stream *body* with backpressure.

        The body bytes travel as memoryview slices over the cached
        object -- no per-response copy -- and ``drain()`` is awaited
        whenever more than ``max_inflight_bytes`` sit unsent, so a slow
        client bounds its own buffer instead of the proxy's heap.
        """
        writer.write(response_head(200, len(body), headers, keep_alive))
        waits = await stream_body(
            writer,
            body,
            chunk_size=self.config.stream_chunk_bytes,
            max_inflight=self.config.max_inflight_bytes,
        )
        if waits:
            self._m.backpressure_waits.inc(waits)

    def _lookup_local(self, url: str) -> Optional[bytes]:
        entry = self._cache.get(url)
        if entry is None:
            return None
        body = self._bodies.get(url)
        if body is None:  # cache/body desync would be a bug
            self._cache.remove(url)
            return None
        return body

    async def _miss_path(
        self, url: str, size_hint: str, parent: Span = NULL_SPAN
    ) -> Tuple[bytes, str]:
        """Resolve a local miss via peers (per mode) then the origin.

        The ``summary.lookup`` span records the attribution trail: which
        summary representation and geometry produced the peer-candidate
        decision, and how the round resolved (``remote_hit``,
        ``false_hit``, ``fetch_failed``, or ``no_candidates``).

        Under owner-routing cooperation (``carp``) there is no
        discovery at all: the miss forwards deterministically to the
        URL's placement owner instead.
        """
        if self._placement.policy.routes_by_owner:
            # _owner_path re-validates Placement.version after every
            # awaited forward before acting on its routing verdict, so
            # the membership writes SC007 sees here are freshness-
            # checked inside the callee.
            return await self._owner_path(  # sc-lint: disable=SC007
                url, size_hint, parent
            )
        candidates = self._candidate_peers(url)
        attrs = self._summary_attributes() if self.spans.enabled else {}
        with self.spans.start_span(
            "summary.lookup",
            trace_id=parent.trace_id or None,
            parent_id=parent.span_id,
            proxy=self.config.name,
            url=url,
            candidates=len(candidates),
            **attrs,
        ) as lookup:
            outcome = "no_candidates"
            if candidates:
                holder = await self._query_peers(url, candidates, lookup)
                if holder is not None:
                    fetch_start = perf_counter()
                    body = await self._fetch_from_peer(
                        holder, url, size_hint, lookup
                    )
                    self._m.phase_seconds["peer_fetch"].observe(
                        perf_counter() - fetch_start
                    )
                    if body is not None:
                        self._m.remote_hits.inc()
                        lookup.set(
                            outcome="remote_hit", peer=holder.address.name
                        ).end()
                        # Single-copy cooperation leaves the document at
                        # the serving peer (whose copy the fetch just
                        # touched); summary cooperation caches it
                        # locally.
                        if self._placement.policy.caches_remote_hits:
                            # Duplicate store of an identical body by
                            # concurrent misses is benign (idempotent
                            # GETs, no single-flight by design).
                            self._store(url, body)  # sc-lint: disable=SC007
                        return body, "REMOTE-HIT"
                    self._m.remote_fetch_failures.inc()
                    outcome = "fetch_failed"
                    lookup.set(peer=holder.address.name)
                else:
                    # False-hit resolution: the summaries (or the query
                    # round) promised a copy nobody actually held.
                    self._m.false_query_rounds.inc()
                    outcome = "false_hit"
            lookup.set(outcome=outcome).end()

        fetch_start = perf_counter()
        body = await self._fetch_from_origin(url, size_hint, parent)
        self._m.phase_seconds["origin_fetch"].observe(
            perf_counter() - fetch_start
        )
        # Benign duplicate store under concurrent same-URL misses (see
        # the remote-hit branch above).
        self._store(url, body)  # sc-lint: disable=SC007
        return body, "MISS"

    async def _owner_path(
        self, url: str, size_hint: str, parent: Span = NULL_SPAN
    ) -> Tuple[bytes, str]:
        """Resolve a miss by forwarding to the URL's placement owner.

        The replica set (owner first, then deterministic failover
        order) comes from the rendezvous ring over the URL's interned
        digest.  When this proxy is in the set, the document is ours:
        fetch the origin and store.  Otherwise forward to the first
        reachable replica with the ``X-SC-Forward`` marker; a replica
        that cannot be reached is treated as departed -- the ring is
        rebalanced (span + metrics) and the next replica under the
        *new* ring is tried.  The loop strictly shrinks the membership,
        so it terminates at this proxy alone in the worst case; the
        origin is the final fallback either way, and the client never
        sees a 5xx for a peer failure.
        """
        digest = md5_digest(url)
        while True:
            replicas = self._placement.replicas(digest)
            routed_version = self._placement.version
            if self.config.name in replicas:
                break  # ours: fall through to the origin fetch + store
            verdict, body, owner_source = await self._forward_to_owner(
                replicas[0], url, size_hint, parent
            )
            if verdict == "ok":
                source = (
                    "REMOTE-HIT" if owner_source == "HIT" else "MISS"
                )
                if source == "REMOTE-HIT":
                    self._m.remote_hits.inc()
                if self._placement.policy.caches_remote_hits:
                    self._store(url, body)
                return body, source
            self._m.peer_forward_failures.inc()
            if verdict == "error":
                break  # owner is up but erroring: go to the origin
            # The owner is gone (connection refused/reset): rebalance
            # and retry under the shrunken ring.  The "gone" verdict
            # describes the membership we routed under; if the ring
            # changed during the awaited forward (the peer rejoined, or
            # another task already rebalanced), the verdict is stale --
            # evicting now could remove a healthy member.  Re-route
            # under the fresh ring instead.
            if self._placement.version == routed_version:
                # The version check above is the freshness guard: every
                # membership mutation (peer tables + ring) bumps
                # Placement.version, so reaching here means the peer
                # state the verdict was routed under is still current.
                self.remove_peer(  # sc-lint: disable=SC007
                    replicas[0], reason="failure"
                )

        fetch_start = perf_counter()
        body = await self._fetch_from_origin(url, size_hint, parent)
        self._m.phase_seconds["origin_fetch"].observe(
            perf_counter() - fetch_start
        )
        # Store only when this proxy belongs to the replica set -- the
        # degraded path (owner up but erroring) served the client from
        # the origin without creating an off-placement duplicate.
        if self.config.name in self._placement.replicas(digest):
            self._store(url, body)
        return body, "MISS"

    async def _forward_to_owner(
        self,
        owner: str,
        url: str,
        size_hint: str,
        parent: Span = NULL_SPAN,
    ) -> Tuple[str, bytes, str]:
        """One marked fetch to *owner*.

        Returns ``(verdict, body, owner_source)``: verdict ``"ok"``
        with the body and the owner's ``X-Cache`` verdict (``HIT`` from
        its cache, ``MISS`` fetched from the origin on our behalf);
        ``"gone"`` when the peer cannot be reached at all (the caller
        rebalances and fails over); ``"error"`` when the peer answered
        but could not serve (its own origin path failed) -- the caller
        goes to the origin itself, never surfacing a 5xx to the client.
        """
        state = self._peers_by_name.get(owner)
        if state is None or not state.alive:
            return "gone", b"", ""
        with self.spans.start_span(
            "peer.forward",
            trace_id=parent.trace_id or None,
            parent_id=parent.span_id,
            proxy=self.config.name,
            peer=owner,
            url=url,
        ) as span:
            headers = {FORWARD_HEADER: self.config.name}
            if size_hint:
                headers["X-Size"] = size_hint
            if span.trace_id:
                headers[TRACE_HEADER] = span.context().header_value()
            self._m.peer_forwards.inc()
            fetch_start = perf_counter()
            try:
                response = await self._fetch(
                    state.address.host, state.address.http_port, url,
                    headers, span,
                )
            except (ConnectionError, ProtocolError, OSError):
                span.end(status="error")
                return "gone", b"", ""
            finally:
                self._m.phase_seconds["peer_fetch"].observe(
                    perf_counter() - fetch_start
                )
            if response.status != 200:
                span.set(status_code=response.status).end(status="error")
                return "error", b"", ""
            owner_source = response.header("x-cache", "MISS").upper()
            span.set(bytes=len(response.body), source=owner_source).end()
            return "ok", response.body, owner_source

    def _candidate_peers(self, url: str) -> List[_PeerState]:
        """Which peers to query for *url*, per the cooperation mode."""
        if self.config.mode is ProxyMode.NO_ICP or not self._peers:
            return []
        alive = [s for s in self._peers.values() if s.alive]
        if self.config.mode is ProxyMode.ICP:
            return alive
        return [
            s
            for s in alive
            if s.summary is not None and s.summary.may_contain(url)
        ]

    async def _query_peers(
        self,
        url: str,
        candidates: List[_PeerState],
        parent: Span = NULL_SPAN,
    ) -> Optional[_PeerState]:
        """Send ICP queries; return the first peer replying HIT.

        The round's ``icp.round`` span is what the queried peers join:
        its ids travel in the query datagram's Options/Option Data
        fields, and each reply lands as an ``icp.reply`` event on it.
        """
        if self._icp is None or self._icp.transport is None:
            return None
        self._request_counter += 1
        reqnum = self._request_counter & 0xFFFFFFFF
        outstanding = {s.address.icp_addr for s in candidates}
        with self.spans.start_span(
            "icp.round",
            trace_id=parent.trace_id or None,
            parent_id=parent.span_id,
            proxy=self.config.name,
            url=url,
            peers=len(candidates),
            reqnum=reqnum,
        ) as round_span:
            pending = _PendingQuery(outstanding, round_span)
            self._pending[reqnum] = pending
            transport = self._icp.transport
            query = IcpQuery(
                url=url,
                request_number=reqnum,
                trace_id=round_span.trace_id,
                parent_span=round_span.span_id,
            )
            encoded = query.encode()
            round_span.add_event("icp.query.sent", peers=len(candidates))
            for state in candidates:
                transport.sendto(encoded, state.address.icp_addr)
                self._m.icp_queries_sent.inc()
                self._m.udp_sent.inc()
            round_start = perf_counter()
            try:
                winner_addr = await asyncio.wait_for(
                    pending.future, timeout=self.config.icp_timeout
                )
            except asyncio.TimeoutError:
                winner_addr = None
                self._m.icp_timeouts.inc()
                round_span.add_event(
                    "icp.timeout", waited=self.config.icp_timeout
                )
                logger.warning(
                    "proxy=%s icp query timeout url=%s peers=%d trace=%s",
                    self.config.name,
                    url,
                    len(candidates),
                    format_id(round_span.trace_id),
                )
            finally:
                self._pending.pop(reqnum, None)
                self._m.phase_seconds["icp_round"].observe(
                    perf_counter() - round_start
                )
            if winner_addr is None:
                round_span.set(hit=False).end()
                return None
            round_span.set(hit=True).end()
            return self._peers.get(winner_addr)

    async def _fetch_from_peer(
        self,
        peer: _PeerState,
        url: str,
        size_hint: str,
        parent: Span = NULL_SPAN,
    ) -> Optional[bytes]:
        """HTTP-fetch a remote hit; ``None`` if the peer no longer has it."""
        headers = {"X-Only-If-Cached": "1"}
        if size_hint:
            headers["X-Size"] = size_hint
        with self.spans.start_span(
            "peer.fetch",
            trace_id=parent.trace_id or None,
            parent_id=parent.span_id,
            proxy=self.config.name,
            peer=peer.address.name,
            url=url,
        ) as span:
            if span.trace_id:
                headers[TRACE_HEADER] = span.context().header_value()
            try:
                response = await self._fetch(
                    peer.address.host, peer.address.http_port, url,
                    headers, span,
                )
            except (ConnectionError, ProtocolError, OSError):
                span.end(status="error")
                return None
            if response.status != 200:
                span.set(status_code=response.status).end(status="error")
                return None
            span.set(bytes=len(response.body)).end()
            return response.body

    async def _fetch_from_origin(
        self, url: str, size_hint: str, parent: Span = NULL_SPAN
    ) -> bytes:
        headers = {"X-Size": size_hint} if size_hint else {}
        self._m.origin_fetches.inc()
        with self.spans.start_span(
            "origin.fetch",
            trace_id=parent.trace_id or None,
            parent_id=parent.span_id,
            proxy=self.config.name,
            url=url,
        ) as span:
            if span.trace_id:
                headers[TRACE_HEADER] = span.context().header_value()
            try:
                response = await self._fetch(
                    self.origin_address[0], self.origin_address[1], url,
                    headers, span,
                )
            except (ConnectionError, ProtocolError, OSError):
                span.end(status="error")
                raise
            if response.status != 200:
                span.set(status_code=response.status).end(status="error")
                raise ProxyError(
                    f"origin returned {response.status} for {url!r}"
                )
            span.set(bytes=len(response.body)).end()
            return response.body

    async def _fetch(
        self,
        host: str,
        port: int,
        url: str,
        headers: Dict[str, str],
        span: Span = NULL_SPAN,
    ) -> HttpResponse:
        """One upstream GET over a pooled keep-alive connection.

        A pooled connection may have been closed by the upstream while
        idle, so an exchange that fails on a *reused* connection is
        retried on the next one; each stale connection is consumed from
        the idle list, so the loop terminates with a fresh socket whose
        failure is genuine and propagates.
        """
        if self.config.pool_size <= 0:
            reader, writer = await asyncio.open_connection(host, port)
            try:
                write_request(writer, url, headers, keep_alive=False)
                await writer.drain()
                return await read_response(reader)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, asyncio.CancelledError):
                    pass
        while True:
            conn = await self._pool.acquire(host, port)
            span.add_event(
                "pool.acquire",
                upstream=f"{host}:{port}",
                reused=conn.was_reused,
            )
            try:
                response = await self._exchange(conn, url, headers)
            except (ConnectionError, ProtocolError, OSError):
                self._pool.release(conn, reusable=False)
                if not conn.was_reused:
                    raise
                continue  # stale pooled connection; try the next one
            except BaseException:
                # Cancellation (or any other non-I/O exception) lands
                # between acquire and release: the exchange is
                # half-finished, so the socket must not be reused --
                # but it must go back through release() or it leaks.
                self._pool.release(conn, reusable=False)
                raise
            self._pool.release(conn, reusable=response.keep_alive)
            return response

    async def _exchange(
        self, conn: PooledConnection, url: str, headers: Dict[str, str]
    ) -> HttpResponse:
        """One request/response round trip on an open connection."""
        write_request(conn.writer, url, headers, keep_alive=True)
        await conn.writer.drain()
        return await read_response(conn.reader)

    # ------------------------------------------------------------------
    # Introspection used by tests and benchmarks
    # ------------------------------------------------------------------

    @property
    def cache(self) -> WebCache:
        """The document cache (read-only use expected)."""
        return self._cache

    @property
    def summary(self) -> LocalSummary:
        """This proxy's own local summary."""
        return self._node.local

    @property
    def placement(self) -> Placement:
        """This proxy's placement view (read-only use expected)."""
        return self._placement

    def peer_summary(
        self, icp_addr: Tuple[str, int]
    ) -> Optional[RemoteSummary]:
        """The current summary copy held for the peer at *icp_addr*."""
        state = self._peers.get(icp_addr)
        return state.summary if state else None
