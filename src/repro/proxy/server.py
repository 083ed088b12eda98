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
    directory and a copy of every peer's, one slot each of a
    :class:`~repro.summaries.PeerSummaries` store (a slot is initialized
    by the first DIRUPDATE received, per Section VI-B).  A miss probes
    every copy at once and queries only promising peers.  When the
    update policy fires, the pending delta is drained into MTU-sized,
    representation-tagged DIRUPDATE messages and sent to every peer,
    unless its flips outweigh the whole bit array: then the array goes
    in ICP_OP_DIGEST chunks (Bloom summaries only), as it does after a
    resize.  :func:`repro.summaries.codec.ships_whole` makes that
    choice for the DES and the sharing simulator too.

The summary representation -- Bloom filter, exact MD5 directory, or
server-name list -- is selected purely by ``ProxyConfig.summary``; all
summary state flows through :mod:`repro.summaries`, and the wire
encode/decode dispatch lives in :mod:`repro.summaries.codec`.
"""

from __future__ import annotations

import asyncio
import json
import logging
from time import perf_counter, time
from typing import (
    Awaitable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
    cast,
)

from repro.cache import WebCache
from repro.core.bfmath import false_positive_probability_exact
from repro.core.hashing import md5_digest
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    render_json,
    render_prometheus,
)
from repro.obs import spans as tracing
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.spans import (
    NULL_SPAN,
    NULL_SPAN_RING,
    TRACE_HEADER,
    Span,
    SpanRing,
    format_id,
    parse_context,
    parse_id,
)
from repro.errors import ProtocolError, ProxyError, SummaryMismatchError
from repro.protocol.core import FALSE_HIT
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
from repro.proxy.config import PeerAddress, ProxyConfig, scheme_for
from repro.summaries import LocalSummary, PeerSummaries, SummaryNode
from repro.summaries import codec
from repro.summaries.backend import Geometry, SummaryDelta
from repro.proxy.http import (
    HttpConnection,
    HttpRequest,
    HttpResponse,
    Response,
    bound_reads,
)
from repro.proxy.metrics import ProxyMetrics, ProxyStats
from repro.proxy.pool import ConnectionPool
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


class _PeerState:
    """What a proxy knows about one neighbour."""

    __slots__ = ("address", "slot", "assembler")

    def __init__(self, address: PeerAddress, slot: int) -> None:
        self.address = address
        #: The neighbour's slot in the proxy's peer-summary store.
        self.slot = slot
        #: Reassembles whole-filter transfers in digest mode.
        self.assembler = DigestAssembler()


class _IcpProtocol(asyncio.DatagramProtocol):
    """Datagram glue delivering packets to the owning proxy."""

    def __init__(self, proxy: "SummaryCacheProxy") -> None:
        self._proxy = proxy

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
        #: The requester's root span; replies land as its events.
        self.span = span


def _expire(future: "asyncio.Future[Optional[Tuple[str, int]]]") -> None:
    """End an ICP round that is still open with ``asyncio.TimeoutError``."""
    if not future.done():
        future.set_exception(asyncio.TimeoutError())


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
        self._m = ProxyMetrics(self.registry, config.summary.kind)
        self.stats = ProxyStats(self._m)
        #: Span ring backing ``GET /trace`` and the cluster aggregator;
        #: the shared null ring when tracing is disabled (no spans
        #: retained, no trace context on any wire).
        if config.trace_enabled:
            ring = SpanRing(capacity=config.trace_capacity)
            self.registry.counter(
                "trace_ring_dropped_total",
                "spans dropped from a full trace ring",
            ).set_function(lambda: ring.dropped)
            self.spans = ring
        else:
            self.spans = NULL_SPAN_RING
        self._bodies: Dict[str, bytes] = {}
        #: Which protocol decisions this proxy makes.
        self._scheme = scheme_for(config.mode, config.cooperation)
        #: The local summary plus its update bookkeeping (the peers
        #: hold the remote copies).
        self._node = SummaryNode(
            config.summary,
            config.cache_capacity,
            doc_size=config.expected_doc_size,
        )
        self._cache = WebCache(
            config.cache_capacity,
            max_object_size=config.max_object_size,
            on_insert=self._on_cache_insert,
            on_evict=self._on_cache_evict,
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
        #: Every peer's summary copy, one slot per peer; a slot holds no
        #: copy until the peer's first update arrives.
        self._peer_summaries = PeerSummaries.empty(config.summary.kind)
        #: This proxy's view of cluster-wide object placement.  Always
        #: maintained (membership tracking is cheap); misses route by
        #: owner only when the cooperation policy says so.
        self._placement = self._new_placement()
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
        #: Open client-side connections, closed on :meth:`stop` so a
        #: stopped proxy actually disappears (keep-alive connections
        #: would otherwise keep serving peers that pooled a connection
        #: before the listening socket closed).
        self._connections: Set[HttpConnection] = set()
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._udp: Optional[asyncio.DatagramTransport] = None
        # Scrape-time gauges: evaluated when /metrics renders, free
        # between scrapes.  cache_hits/requests mirror CacheStats so a
        # scrape can be cross-checked against the in-process counters.
        g = self.registry.gauge
        self._m.connections_open.set_function(lambda: len(self._connections))
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
        loop = asyncio.get_running_loop()
        self._http_server = await loop.create_server(
            lambda: HttpConnection(
                self._serve_http,
                idle_timeout=self.config.idle_timeout,
                connections=self._connections,
                on_wait=self._m.backpressure_waits.inc,
            ),
            self.config.host,
            self.config.http_port,
        )
        self._udp, _protocol = await loop.create_datagram_endpoint(
            lambda: _IcpProtocol(self),
            local_addr=(self.config.host, self.config.icp_port),
        )
        bound_reads(self._udp)
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
            for connection in list(self._connections):
                connection.close()
            self._connections.clear()
            await self._http_server.wait_closed()
            self._http_server = None
        if self._udp is not None:
            self._udp.close()
            self._udp = None
        await self._pool.close()
        for pending in self._pending.values():
            pending.future.cancel()  # no-op on a finished round
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
        if self._udp is None:
            raise ProxyError(f"{self.config.name}: proxy is not running")
        return self._udp.get_extra_info("sockname")[1]

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
        self._peers = {
            peer.icp_addr: _PeerState(peer, slot)
            for slot, peer in enumerate(peers)
        }
        self._peers_by_name = {
            state.address.name: state for state in self._peers.values()
        }
        self._peer_summaries = PeerSummaries.empty(self.config.summary.kind)
        self._placement = self._new_placement(peer.name for peer in peers)

    def _new_placement(self, peer_names: Iterable[str] = ()) -> Placement:
        """A placement view over *peer_names* (guarded when sanitizing)."""
        placement = Placement(
            self.config.name,
            peer_names,
            policy=self.config.cooperation,
            replication=self.config.replication,
        )
        if self._san is not None:
            placement = cast(
                Placement,
                GuardedPlacement(placement, self._san, self.config.name),
            )
        return placement

    def add_peer(self, peer: PeerAddress) -> None:
        """Admit one peer at runtime (membership join).

        The placement ring is re-derived and every locally cached entry
        the newcomer now owns is invalidated (the HTTP subset has no
        push verb to migrate bodies, so displaced entries are dropped
        and re-placed by demand).  No-op for an already-known peer.
        """
        if peer.name in self._peers_by_name:
            return
        # The lowest free slot, so masks stay as short as the peer table.
        used = {s.slot for s in self._peers.values()}
        slot = next(j for j in range(len(used) + 1) if j not in used)
        state = _PeerState(peer, slot)
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
        self._peer_summaries.drop_slot(state.slot)
        self._rebalance(reason, name)

    def _rebalance(self, reason: str, member: str) -> None:
        """Apply one membership change to the placement ring.

        Emits the ``placement.rebalance`` span and increments the
        rebalance/invalidation counters; displaced cache entries are
        removed (which also clears their summary bits and bodies via
        the eviction callback).
        """
        wall, start = time(), perf_counter()
        urls = self._cache.urls()
        if reason == "join":
            displaced = self._placement.add_member(member, urls)
        else:
            displaced = self._placement.remove_member(member, urls)
        for url in displaced:
            self._cache.remove(url)
        self._m.placement_rebalances.inc()
        if displaced:
            self._m.placement_entries_invalidated.inc(len(displaced))
        self.spans.record(
            "placement.rebalance", 0, 0, wall, perf_counter() - start,
            (
                "proxy", self.config.name, "member", member,
                "reason", reason, "members", len(self._placement.members),
                "invalidated", len(displaced),
            ),
        )
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
            self._peer_summaries.drop_slot(state.slot)

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
        which the measured ratio still captures); their geometry is
        ``()``, and they report 0.
        """
        geometry = self._node.local.geometry
        if not geometry:
            return 0.0
        num_bits, (num_hashes, _) = geometry
        return false_positive_probability_exact(
            num_bits, len(self._cache), num_hashes
        )

    # ------------------------------------------------------------------
    # Cache bookkeeping
    # ------------------------------------------------------------------

    def _on_cache_insert(self, url: str) -> None:
        self._node.on_insert(url)

    def _on_cache_evict(self, url: str) -> None:
        self._node.on_evict(url)
        self._bodies.pop(url, None)

    def _store(self, url: str, body: bytes, remote: bool = False) -> None:
        """Admit a fetched document (*remote*: a peer served it) and
        maybe broadcast an update."""
        if not self._scheme.keeps(remote):
            return  # the single copy stays at the serving peer
        self._bodies[url] = body
        self._cache.put(url, len(body))
        if url not in self._cache:
            self._bodies.pop(url, None)  # rejected (too large)
        if self._scheme.summaries:
            self._maybe_resize_summary()
            self._maybe_broadcast_update()

    def _maybe_resize_summary(self) -> None:
        """Double a Bloom summary the cache has outgrown
        (:meth:`SummaryNode.grow`) and resync every peer with the whole
        array: a delta cannot describe a geometry change."""
        if not self._node.grow(self._cache.urls(), perf_counter()):
            return
        self._m.summary_resizes.inc()
        logger.info(
            "proxy=%s summary resized to %d bits (%d cached documents)",
            self.config.name,
            self._node.local.geometry[0],
            len(self._cache),
        )
        if self._peers:
            self._broadcast()

    def _broadcast(self, delta: Optional[SummaryDelta] = None) -> None:
        """Ship the summary to every peer and record a
        ``dirupdate.drain`` span naming the encoding sent.

        *delta* travels as the codec picks (DIRUPDATE flips, or DIGEST
        chunks when the whole array is smaller); with none (the resync
        after a growth) the whole array goes.
        """
        wall, start = time(), perf_counter()
        local = self._node.local
        messages = codec.whole_summary_messages(local) if delta is None else (
            codec.update_messages(local, delta)
        )
        encoded = [message.encode() for message in messages]
        for peer_addr in self._peers:
            for data in encoded:
                self._send(data, peer_addr, self._m.dirupdates_sent)
        self.spans.record(
            "dirupdate.drain", 0, 0, wall, perf_counter() - start,
            (
                "proxy", self.config.name,
                "records", 0 if delta is None else delta.change_count,
                "representation", self.config.summary.kind,
                "encoding",
                "digest" if isinstance(messages[0], DigestChunk) else "delta",
                "peers", len(self._peers), "messages", len(encoded),
            ),
        )

    def _send(
        self, data: bytes, addr: Tuple[str, int], kind: Counter
    ) -> None:
        """The one place a datagram leaves: sent, then counted in
        ``proxy_udp_sent_total`` and its per-type counter *kind*.  A
        proxy that is not (or no longer) bound sends nothing."""
        if self._udp is None:
            return
        self._udp.sendto(data, addr)
        self._m.udp_sent.inc()
        kind.inc()

    def _maybe_broadcast_update(self) -> None:
        now = perf_counter()
        if not self._node.due_for_update(
            self.config.update_policy, now, len(self._cache)
        ):
            return
        delta = self._node.publish(now)
        if delta.is_empty() or not self._peers or self._udp is None:
            return
        self._broadcast(delta)

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
        elif isinstance(message, (DirUpdate, SetDirUpdate, DigestChunk)):
            self._m.dirupdates_received.inc()
            state = self._peers.get(addr)
            if state is None:
                return  # summary traffic from an unconfigured peer
            self._handle_summary(message, state)

    def _handle_query(
        self, query: IcpQuery, addr: Tuple[str, int]
    ) -> None:
        self._m.icp_queries_received.inc()
        wall, start = time(), perf_counter()
        hit = query.url in self._cache
        if query.trace_id:
            # The datagram carried trace context (Options/Option Data),
            # so this peer's verdict joins the originating request's
            # trace -- the cross-process link the cluster aggregator
            # reassembles.
            self.spans.record(
                "icp.query", query.trace_id, query.parent_span,
                wall, perf_counter() - start,
                ("proxy", self.config.name, "url", query.url, "hit", hit),
            )
        reply = (IcpHit if hit else IcpMiss)(
            url=query.url, request_number=query.request_number
        )
        self._send(reply.encode(), addr, self._m.icp_replies_sent)

    def _handle_reply(
        self, reply: Union[IcpHit, IcpMiss], addr: Tuple[str, int]
    ) -> None:
        self._m.icp_replies_received.inc()
        pending = self._pending.get(reply.request_number)
        if (
            pending is None
            or pending.future.done()
            # A sender this round never queried (or its second reply)
            # must not end the round for the genuine replies.
            or addr not in pending.outstanding
        ):
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

    def _handle_summary(
        self,
        message: Union[DirUpdate, SetDirUpdate, DigestChunk],
        state: _PeerState,
    ) -> None:
        """Patch the sender's slot from a (Set)DirUpdate or a DIGEST.

        DIGEST chunks are reassembled first, and the completed array
        replaces the copy.  A mismatched update -- another
        representation than this proxy's, a geometry over the codec's
        size bound, or a Bloom delta whose geometry disagrees with the
        copy (the peer resized and this datagram predates the digest
        resync) -- is rejected cleanly: the copy is left untouched and
        the peer's digest resynchronizes it.
        """
        peer = state.address.name
        wall, start = time(), perf_counter()
        try:
            if isinstance(message, DigestChunk):
                geometry = codec.apply_digest(
                    self._peer_summaries, state.slot, state.assembler, message
                )
                if geometry is None:
                    return
                name, attrs = "digest.apply", ("bits", geometry[0])
            else:
                codec.apply_update(self._peer_summaries, state.slot, message)
                name, attrs = "dirupdate.apply", (
                    "records", message.change_count
                )
        except SummaryMismatchError as exc:
            self._m.dirupdate_rejects.inc()
            self.spans.record(
                "dirupdate.reject", 0, 0, wall, perf_counter() - start,
                ("proxy", self.config.name, "peer", peer, "reason", str(exc)),
                status="error",
            )
            logger.debug(
                "proxy=%s rejected dirupdate from peer=%s: %s",
                self.config.name,
                peer,
                exc,
            )
            return
        self.spans.record(
            name, 0, 0, wall, perf_counter() - start,
            ("proxy", self.config.name, "peer", peer, *attrs),
        )

    # ------------------------------------------------------------------
    # HTTP path
    # ------------------------------------------------------------------

    def _serve_http(
        self, request: HttpRequest
    ) -> Union[Response, Awaitable[Response]]:
        """Route one request read by an :class:`HttpConnection`.

        ``/metrics``, ``/trace``, an ``X-Only-If-Cached`` peer fetch and
        a client's local hit are answered at once, inside the
        connection's read callback; a forwarded fetch and a client's
        miss return the awaitable the connection runs as a task.
        """
        path = request.url.partition("?")[0]
        if path == "/metrics":
            return self._serve_metrics(request)
        if path == "/trace":
            return self._serve_trace(request)
        # Parsed header names are lower case.
        if request.headers.get("x-only-if-cached"):
            return self._serve_peer(request)
        if request.headers.get("x-sc-forward"):
            return self._serve_forward(request)
        return self._serve_client(request)

    def _serve_metrics(self, request: HttpRequest) -> Response:
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
            text = render_json(
                self.registry,
                name=self.config.name,
                mode=self.config.mode.value,
                spans=self.spans.as_dicts(last=64),
                trace_ring_dropped=self.spans.dropped,
            )
            content_type = "application/json"
        else:
            text = render_prometheus(self.registry)
            content_type = PROMETHEUS_CONTENT_TYPE
        return 200, text.encode("utf-8"), {"Content-Type": content_type}

    def _serve_trace(self, request: HttpRequest) -> Response:
        """Serve the span ring as JSON (the cluster aggregator's feed).

        ``GET /trace`` returns every retained span, oldest first, plus
        the ``summary`` representation and (Bloom) live geometry;
        ``GET /trace?trace=<8-hex-id>`` filters to one trace.
        """
        query = request.url.partition("?")[2]
        wanted: Optional[int] = None
        for part in query.split("&"):
            key, sep, value = part.partition("=")
            if key == "trace" and sep:
                trace_id = parse_id(value)
                # No span carries a malformed id, and two different
                # ids select nothing; -1 matches no trace.
                if trace_id is None or wanted not in (None, trace_id):
                    trace_id = -1
                wanted = trace_id
        spans = self.spans.as_dicts(trace_id=wanted)
        # The summary configuration every lookup decision used, once
        # per scrape rather than on every miss's span.
        summary: Dict[str, object] = {
            "representation": self.config.summary.kind
        }
        geometry = self._node.local.geometry
        if geometry:
            num_bits, (num_hashes, _) = geometry
            summary.update(
                num_bits=num_bits,
                num_hashes=num_hashes,
                load_factor=self.config.summary.load_factor,
            )
        payload = {
            "name": self.config.name,
            "enabled": self.spans.enabled,
            "capacity": self.spans.capacity,
            "dropped": self.spans.dropped,
            "summary": summary,
            "spans": spans,
        }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return 200, body, {"Content-Type": "application/json"}

    def _serve_peer(self, request: HttpRequest) -> Response:
        """Serve a proxy-to-proxy fetch: cache or 504, never recurse."""
        wall, start = time(), perf_counter()
        body = self._lookup_local(request.url)
        ctx = parse_context(request.header(TRACE_HEADER))
        if ctx is not None:
            # The fetching proxy put its root span's context on the
            # request, so this side's verdict joins the same trace.
            trace_id, parent_id = ctx
            self.spans.record(
                "peer.serve", trace_id, parent_id,
                wall, perf_counter() - start,
                (
                    "proxy", self.config.name, "url", request.url,
                    "hit", body is not None,
                ),
            )
        if body is None:
            return 504, b"", {"X-Cache": "MISS"}
        self._m.peer_served_requests.inc()
        return 200, body, {"X-Cache": "HIT"}

    async def _serve_forward(self, request: HttpRequest) -> Response:
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
        trace_id, parent_id = self._join_trace(request)
        # The with-statement ends the span on *every* exit -- including
        # a client disconnect cancelling this handler mid-await -- so a
        # dropped peer request never strands a live span in the ring.
        with self.spans.start_span(
            "peer.serve",
            trace_id=trace_id,
            parent_id=parent_id,
            proxy=self.config.name,
            url=url,
            requester=request.header("x-sc-forward"),
            forwarded=True,
        ) as span:
            body = self._lookup_local(url)
            source = "HIT"
            if body is None:
                source = "MISS"
                try:
                    # Concurrent misses for the same URL each fetch and
                    # store; the store is idempotent over identical
                    # origin bodies, so the lost-update SC007 sees is
                    # benign (collapsing duplicate fetches is a
                    # deliberate non-goal for idempotent GETs).
                    body = await self._origin_path(  # sc-lint: disable=SC007
                        url, request.header("x-size"), span
                    )
                except ProxyError:
                    span.set(source=source).end(status="error")
                    return 502, b"", {OWNER_HEADER: self.config.name}
            self._m.peer_served_requests.inc()
            span.set(source=source, bytes=len(body)).end()
        return 200, body, {"X-Cache": source, OWNER_HEADER: self.config.name}

    def _serve_client(
        self, request: HttpRequest
    ) -> Union[Response, Awaitable[Response]]:
        """Serve a client request: a local hit now, or the miss path.

        A hit has no ``await``, so it is answered at once and its root
        span is written finished, as one record.  A miss returns
        :meth:`_serve_miss` to await.  Either way the root's duration
        and ``proxy_request_phase_seconds{phase="total"}`` are the same
        ``perf_counter`` delta.
        """
        self._m.http_requests.inc()
        url = request.url
        trace_id, parent_id = self._join_trace(request)
        wall, start = time(), perf_counter()
        body = self._lookup_local(url)
        if body is None:
            return self._serve_miss(
                url, request.header("x-size"), trace_id, parent_id, start
            )
        self._m.local_hits.inc()
        self._m.bytes_served.inc(len(body))
        elapsed = perf_counter() - start
        self._m.phase_seconds["total"].observe(elapsed)
        span_id = self.spans.record(
            "http.request", trace_id, parent_id, wall, elapsed,
            (
                "proxy", self.config.name, "url", url,
                "source", "HIT", "bytes", len(body),
            ),
        )
        headers = {"X-Cache": "HIT"}
        if trace_id:
            # Echo the trace context so the client learns which trace
            # its request joined (the load driver records it).
            headers[TRACE_HEADER] = tracing.format_context(trace_id, span_id)
        return 200, body, headers

    async def _serve_miss(
        self,
        url: str,
        size_hint: str,
        trace_id: int,
        parent_id: int,
        start: float,
    ) -> Response:
        """Resolve a client's local miss under a live root span.

        The miss path fills the root in across its awaits.  When the
        origin cannot serve, the client gets a ``502`` marked
        ``X-Cache: MISS`` and the root ends with ``status="error"``; the
        connection stays usable.
        """
        with self.spans.start_span(
            "http.request",
            trace_id=trace_id,
            parent_id=parent_id,
            proxy=self.config.name,
            url=url,
        ) as root:
            status = 200
            try:
                body, source = await self._miss_path(url, size_hint, root)
            except ProxyError:
                status, body, source = 502, b"", "MISS"
                root.set(source=source).end(status="error")
            else:
                self._m.bytes_served.inc(len(body))
                self._m.phase_seconds["total"].observe(perf_counter() - start)
                root.set(source=source, bytes=len(body))
        headers = {"X-Cache": source}
        if trace_id:
            headers[TRACE_HEADER] = tracing.format_context(
                trace_id, root.span_id
            )
        return status, body, headers

    def _join_trace(self, request: HttpRequest) -> Tuple[int, int]:
        """The ``(trace_id, parent_id)`` of one served request's root.

        Continues the sender's ``X-SC-Trace`` context when the request
        carried one and starts a fresh trace otherwise.  With tracing
        disabled both are 0, which suppresses every propagation site
        downstream.  Also opens the request's sanitizer scope.
        """
        trace_id = parent_id = 0
        if self.spans.enabled:
            trace_id, parent_id = parse_context(
                request.header(TRACE_HEADER)
            ) or (self.spans.new_trace_id(), 0)
        if self._san is not None:
            # New logical scope (read markers from the previous request
            # on this keep-alive task are not ours), plus trace
            # attribution for any violation we cause.
            self._san.begin_request(format_id(trace_id) if trace_id else "")
        return trace_id, parent_id

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
        self, url: str, size_hint: str, root: Span = NULL_SPAN
    ) -> Tuple[bytes, str]:
        """Resolve a local miss via peers (per the scheme) then the origin.

        The request's root span records the attribution trail: how many
        peers were asked (``candidates``) and how the round resolved
        (``outcome``: the core's ``remote_hit``, ``false_hit``,
        ``no_holder`` or ``no_candidates``, or ``fetch_failed`` when the
        holder could not serve); the round and the fetches add their own
        phase attributes.

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
                url, size_hint, root
            )
        candidates = self._candidate_peers(url)
        holder = None
        if candidates:
            holder = await self._query_peers(url, candidates, root)
        outcome = self._scheme.outcome(len(candidates), holder is not None)
        if holder is not None:
            # A peer that no longer holds the document answers 504: any
            # verdict but "ok" falls to the origin.
            verdict, body, _ = await self._upstream_get(
                holder, url, {"X-Only-If-Cached": "1"}, size_hint, root
            )
            if verdict == "ok":
                self._m.remote_hits.inc()
                root.set(candidates=len(candidates), outcome=outcome)
                # The scheme decides whether a copy stays here too
                # (single-copy cooperation leaves it at the serving
                # peer, whose copy the fetch just touched).
                self._store(url, body, remote=True)
                return body, "REMOTE-HIT"
            self._m.remote_fetch_failures.inc()
            outcome = "fetch_failed"
        elif outcome == FALSE_HIT:
            self._m.false_query_rounds.inc()
        root.set(candidates=len(candidates), outcome=outcome)
        body = await self._origin_path(url, size_hint, root)
        return body, "MISS"

    async def _owner_path(
        self, url: str, size_hint: str, root: Span = NULL_SPAN
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
        so it terminates at this proxy alone in the worst case.  An
        owner that answers but cannot serve (its own origin path failed)
        sends this proxy to the origin itself; the origin is the final
        fallback either way, and the client never sees a 5xx for a peer
        failure.
        """
        digest = md5_digest(url)
        while True:
            replicas = self._placement.replicas(digest)
            routed_version = self._placement.version
            if self.config.name in replicas:
                break  # ours: fall through to the origin fetch + store
            owner = self._peers_by_name.get(replicas[0])
            verdict, body, owner_source = "gone", b"", ""
            if owner is not None:
                self._m.peer_forwards.inc()
                verdict, body, owner_source = await self._upstream_get(
                    owner,
                    url,
                    {FORWARD_HEADER: self.config.name},
                    size_hint,
                    root,
                )
            if verdict == "ok":
                source = (
                    "REMOTE-HIT" if owner_source == "HIT" else "MISS"
                )
                if source == "REMOTE-HIT":
                    self._m.remote_hits.inc()
                return body, source  # the owner keeps the single copy
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

        # Stored only if this proxy belongs to the replica set -- the
        # degraded path (owner up but erroring) serves the client from
        # the origin without creating an off-placement duplicate.
        body = await self._origin_path(url, size_hint, root, placed=digest)
        return body, "MISS"

    async def _origin_path(
        self,
        url: str,
        size_hint: str,
        span: Span = NULL_SPAN,
        placed: Optional[bytes] = None,
    ) -> bytes:
        """The one tail every unresolved miss ends in: origin, then store.

        The client path, the owner-routed path and the owner side of a
        forward all finish here: count the fetch, get the body from the
        origin through the pool, and store it.  Concurrent misses for
        one URL each fetch it.  *placed* is the URL's digest when the
        caller routed by owner: the body is then stored only if this
        proxy is in the replica set once the fetch has returned.  Raises
        :class:`~repro.errors.ProxyError` when the origin cannot serve.
        """
        self._m.origin_fetches.inc()
        verdict, body, _ = await self._upstream_get(
            None, url, {}, size_hint, span
        )
        if verdict != "ok":
            raise ProxyError(f"origin fetch failed ({verdict}) for {url!r}")
        if placed is None or self.config.name in self._placement.replicas(
            placed
        ):
            self._store(url, body)
        return body

    def _candidate_peers(self, url: str) -> List[_PeerState]:
        """The peers the scheme asks about *url*, in peer-table order.

        Under summary cooperation one probe asks every peer's copy at
        once.
        """
        peers = self._peers.values()
        everyone = sum(1 << state.slot for state in peers)
        mask = self._scheme.candidates(url, self._peer_summaries, everyone)
        return [s for s in peers if mask >> s.slot & 1]

    async def _query_peers(
        self,
        url: str,
        candidates: List[_PeerState],
        root: Span = NULL_SPAN,
    ) -> Optional[_PeerState]:
        """Send ICP queries; return the first peer replying HIT.

        The queried peers join the request's trace: the root span's ids
        travel in the query datagram's Options/Option Data fields, each
        reply lands as an ``icp.reply`` event on it, and the round's
        wall time as its ``icp_round_s`` attribute.
        """
        if self._udp is None:
            return None
        self._request_counter += 1
        reqnum = self._request_counter & 0xFFFFFFFF
        pending = _PendingQuery(
            {s.address.icp_addr for s in candidates}, root
        )
        self._pending[reqnum] = pending
        encoded = IcpQuery(
            url=url,
            request_number=reqnum,
            trace_id=root.trace_id,
            parent_span=root.span_id,
        ).encode()
        for state in candidates:
            self._send(
                encoded, state.address.icp_addr, self._m.icp_queries_sent
            )
        round_start = perf_counter()
        timer = asyncio.get_running_loop().call_later(
            self.config.icp_timeout, _expire, pending.future
        )
        try:
            winner_addr = await pending.future
        except asyncio.TimeoutError:
            winner_addr = None
            self._m.icp_timeouts.inc()
            root.add_event("icp.timeout", waited=self.config.icp_timeout)
            logger.warning(
                "proxy=%s icp query timeout url=%s peers=%d trace=%s",
                self.config.name,
                url,
                len(candidates),
                format_id(root.trace_id),
            )
        finally:
            timer.cancel()
            self._pending.pop(reqnum, None)
            elapsed = perf_counter() - round_start
            self._m.phase_seconds["icp_round"].observe(elapsed)
            root.set(icp_round_s=elapsed)
        return self._peers.get(winner_addr) if winner_addr else None

    async def _upstream_get(
        self,
        peer: Optional[_PeerState],
        url: str,
        headers: Dict[str, str],
        size_hint: str,
        span: Span = NULL_SPAN,
    ) -> Tuple[str, bytes, str]:
        """One timed GET to *peer* (``None``: the origin).

        *headers* is the caller's marker (``X-Only-If-Cached``,
        ``X-SC-Forward`` or nothing); size hint and *span*'s trace
        context are added here.  Returns ``(verdict, body, source)``:
        ``"ok"`` with the 200 body and the upstream's ``X-Cache`` value
        (empty when it sent none), ``"error"`` when it answered anything
        else, ``"gone"`` when it could not be reached at all.  The
        verdict and the fetch's wall time land on *span* as
        ``peer_fetch``/``peer_fetch_s`` (with ``peer`` and
        ``peer_source``) or ``origin_fetch``/``origin_fetch_s``.
        """
        if peer is None:
            host, port = self.origin_address
            phase = "origin_fetch"
        else:
            host, port = peer.address.host, peer.address.http_port
            phase = "peer_fetch"
        if size_hint:
            headers["X-Size"] = size_hint
        if span.trace_id:
            headers[TRACE_HEADER] = span.header_value()
        response: Optional[HttpResponse]
        start = perf_counter()
        try:
            response = await self._pool.get(host, port, url, headers)
        except (ConnectionError, ProtocolError, OSError):
            response = None
        finally:
            elapsed = perf_counter() - start
            self._m.phase_seconds[phase].observe(elapsed)
        if response is None:
            verdict, body, source = "gone", b"", ""
        elif response.status != 200:
            verdict, body, source = "error", b"", ""
        else:
            verdict, body = "ok", response.body
            source = response.header("x-cache").upper()
        if peer is None:
            span.set(origin_fetch=verdict, origin_fetch_s=elapsed)
        else:
            span.set(
                peer=peer.address.name,
                peer_fetch=verdict,
                peer_fetch_s=elapsed,
                peer_source=source,
            )
        return verdict, body, source

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

    def peer_geometry(self, icp_addr: Tuple[str, int]) -> Optional[Geometry]:
        """The geometry of the copy held for the peer at *icp_addr*
        (``None``: no copy yet, or no such peer)."""
        state = self._peers.get(icp_addr)
        if state is None:
            return None
        return self._peer_summaries.geometry(state.slot)
