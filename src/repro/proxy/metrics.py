"""The proxy's registry instruments and the read-only view over them.

Stateless leaves of :mod:`repro.proxy.server`: :class:`ProxyMetrics`
registers every ``proxy_*``/``placement_*`` series the proxy counts
into (the only place it counts), and :class:`ProxyStats` reads those
same counters back under the names the paper's tables use.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry

#: Histogram bounds for request-phase timings (0.1 ms .. 10 s; ICP
#: timeouts sit around 2 s and origin delays around 1 s).
_PHASE_BUCKETS = (
    1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0,
)


class ProxyMetrics:
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
            "summary-directed query rounds where no queried peer held "
            "the document",
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
            "write pauses taken because a client's unsent bytes exceeded "
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
    """Descriptor reading the :class:`ProxyMetrics` counter of its name."""

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, stats: "ProxyStats", owner: object = None) -> int:
        return int(getattr(stats._metrics, self._name).value)


class ProxyStats:
    """Read-only live view of the counters the paper measures per proxy.

    Nothing is stored here: every field reads the proxy's own registry
    counter of the same name in :class:`ProxyMetrics`.  UDP counters
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

    def __init__(self, metrics: ProxyMetrics) -> None:
        self._metrics = metrics

    @property
    def hit_ratio(self) -> float:
        """Local + remote hits over client requests."""
        if not self.http_requests:
            return 0.0
        return (self.local_hits + self.remote_hits) / self.http_requests
