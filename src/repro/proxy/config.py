"""Configuration records for the proxy prototype."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.placement import CooperationPolicy
from repro.protocol.core import Scheme
from repro.summaries import (
    SummaryConfig,
    ThresholdUpdatePolicy,
    UpdatePolicy,
)


class ProxyMode(str, enum.Enum):
    """Cooperation mode of a proxy (the three columns of Table II)."""

    #: No cooperation: misses go straight to the origin server.
    NO_ICP = "no-icp"
    #: Classic ICP: multicast a query to every peer on every miss.
    ICP = "icp"
    #: Summary cache enhanced ICP: query only peers whose Bloom summary
    #: predicts a hit; disseminate DIRUPDATE messages.
    SC_ICP = "sc-icp"


def scheme_for(
    mode: ProxyMode,
    cooperation: CooperationPolicy = CooperationPolicy.SUMMARY,
) -> Scheme:
    """The protocol decisions of a *mode* proxy under *cooperation*: the
    one place the live proxy and the DES derive them.  Owner routing
    (``carp``) asks nobody and publishes no summary, in every mode."""
    ask = {ProxyMode.ICP: "all", ProxyMode.SC_ICP: "summaries"}.get(mode, "none")
    return Scheme(
        "none" if cooperation.routes_by_owner else ask,
        caches_remote_hits=cooperation.caches_remote_hits,
    )


@dataclass(frozen=True)
class PeerAddress:
    """How to reach one neighbour proxy."""

    name: str
    host: str
    http_port: int
    icp_port: int

    @property
    def icp_addr(self) -> Tuple[str, int]:
        """The UDP ``(host, port)`` this peer's ICP endpoint listens on."""
        return (self.host, self.icp_port)


@dataclass(frozen=True)
class ProxyConfig:
    """Parameters of one prototype proxy instance.

    ``icp_timeout`` bounds how long a miss waits for peer replies; the
    classic Squid default is 2 s, but on loopback a few hundred ms is
    plenty and keeps experiment wall-clock low.
    """

    name: str = "proxy"
    host: str = "127.0.0.1"
    http_port: int = 0  # 0 = let the OS pick
    icp_port: int = 0
    mode: ProxyMode = ProxyMode.SC_ICP
    cache_capacity: int = 16 * 1024 * 1024
    max_object_size: Optional[int] = 250 * 1024
    summary: SummaryConfig = field(default_factory=SummaryConfig)
    #: Average document size used to size the Bloom filter.
    expected_doc_size: int = 8 * 1024
    #: Ship a summary update when this fraction of cached documents is
    #: new (the paper's recommended 1%-10% range).  0 means no delay:
    #: an update ships after every insert (the live line of Fig. 2).
    update_threshold: float = 0.01
    #: Full update policy; overrides ``update_threshold`` when set
    #: (interval and packet-fill policies have no threshold shorthand).
    update_policy: Optional[UpdatePolicy] = None
    #: Seconds to wait for ICP replies before falling back to the origin.
    icp_timeout: float = 0.5
    #: UDP payload budget for DIRUPDATE batching.
    mtu: int = 1400
    #: How summary updates are shipped: ``"delta"`` sends
    #: ICP_OP_DIRUPDATE bit-flip batches (the paper's SC-ICP design);
    #: ``"digest"`` sends the whole bit array in ICP_OP_DIGEST chunks
    #: (the Squid cache-digest variant, "more economical" when the
    #: delay threshold is large).
    update_encoding: str = "delta"
    #: Rebuild the filter at double the bits once the cache holds this
    #: many times the expected document count ("proxies can lower or
    #: raise it depending on their memory and network traffic
    #: concerns").  0 disables auto-resizing.
    resize_threshold: float = 2.0
    #: Seconds a keep-alive client connection may sit idle between
    #: requests before the proxy closes it.  0 disables the timeout.
    idle_timeout: float = 30.0
    #: Requests served on one client connection before the proxy forces
    #: ``Connection: close`` (bounded pipelining).  0 means unlimited.
    max_requests_per_connection: int = 0
    #: In-flight write-buffer ceiling per connection: the streaming
    #: body path awaits ``drain()`` once the transport buffers more
    #: than this many unsent bytes.
    max_inflight_bytes: int = 256 * 1024
    #: Chunk size for streamed body reads/writes.
    stream_chunk_bytes: int = 64 * 1024
    #: Idle pooled connections kept per (host, port) for origin and
    #: peer fetches.  0 disables pooling (a fresh connection per fetch,
    #: the pre-keep-alive behaviour).
    pool_size: int = 8
    #: Seconds an idle pooled connection stays eligible for reuse.
    pool_idle_timeout: float = 10.0
    #: Spans retained in the per-proxy trace ring served at ``/trace``
    #: (oldest spans drop first; drops are counted by the
    #: ``trace_ring_dropped_total`` metric).
    trace_capacity: int = 2048
    #: Whether request-scoped tracing is on.  When off the proxy uses
    #: the shared null span ring: no spans are retained and no trace
    #: context is put on any wire (HTTP header or ICP Options field).
    trace_enabled: bool = True
    #: Cooperation policy of the cluster this proxy belongs to:
    #: ``"summary"`` (summary-directed discovery, remote hits cached
    #: locally), ``"single-copy"`` (discovery, remote hits left at the
    #: serving peer) or ``"carp"`` (misses forward to the URL's
    #: deterministic placement owner; no discovery).  Accepts the
    #: string or the enum.
    cooperation: CooperationPolicy = CooperationPolicy.SUMMARY
    #: Replica-set size of the placement ring (``carp`` cooperation):
    #: each URL lives at its owner plus ``replication - 1`` failover
    #: replicas.
    replication: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cooperation", CooperationPolicy.parse(self.cooperation)
        )
        if self.replication < 1:
            raise ConfigurationError("replication must be >= 1")
        if self.cache_capacity < 1:
            raise ConfigurationError("cache_capacity must be >= 1")
        if not 0.0 <= self.update_threshold <= 1.0:
            raise ConfigurationError(
                "update_threshold must be in [0, 1]"
            )
        if self.icp_timeout <= 0:
            raise ConfigurationError("icp_timeout must be > 0")
        if self.resize_threshold < 0:
            raise ConfigurationError("resize_threshold must be >= 0")
        if self.update_encoding not in ("delta", "digest"):
            raise ConfigurationError(
                f"update_encoding must be 'delta' or 'digest', "
                f"got {self.update_encoding!r}"
            )
        if self.idle_timeout < 0:
            raise ConfigurationError("idle_timeout must be >= 0")
        if self.max_requests_per_connection < 0:
            raise ConfigurationError(
                "max_requests_per_connection must be >= 0"
            )
        if self.max_inflight_bytes < 1:
            raise ConfigurationError("max_inflight_bytes must be >= 1")
        if self.stream_chunk_bytes < 1:
            raise ConfigurationError("stream_chunk_bytes must be >= 1")
        if self.pool_size < 0:
            raise ConfigurationError("pool_size must be >= 0")
        if self.pool_idle_timeout < 0:
            raise ConfigurationError("pool_idle_timeout must be >= 0")
        if self.trace_capacity < 1:
            raise ConfigurationError("trace_capacity must be >= 1")
        if self.update_encoding == "digest" and self.summary.kind != "bloom":
            raise ConfigurationError(
                "update_encoding='digest' ships whole bit arrays "
                "(ICP_OP_DIGEST) and requires a Bloom summary; "
                f"summary kind is {self.summary.kind!r}"
            )

    def effective_update_policy(self) -> UpdatePolicy:
        """The policy governing update shipping for this proxy."""
        if self.update_policy is not None:
            return self.update_policy
        return ThresholdUpdatePolicy(self.update_threshold)
