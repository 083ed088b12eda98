"""One-call construction of a prototype experiment cluster.

A cluster is one origin server plus N proxies (all on localhost,
OS-assigned ports) wired as full-mesh neighbours, plus client drivers.
This is the harness behind the prototype benchmarks and the
``proxy_cluster`` example.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # circular at runtime: obs.cluster drives the client
    from repro.obs.cluster import ClusterSnapshot

from repro.errors import ConfigurationError
from repro.placement import CooperationPolicy
from repro.proxy.client import ClientDriver, ReplayReport, replay_concurrently
from repro.proxy.config import ProxyConfig, ProxyMode
from repro.proxy.metrics import ProxyStats
from repro.proxy.origin import OriginServer
from repro.proxy.server import SummaryCacheProxy
from repro.summaries import SummaryConfig, UpdatePolicy
from repro.traces.model import Trace
from repro.traces.partition import client_streams


@dataclass
class ClusterResult:
    """Merged outcome of one cluster replay."""

    client_report: ReplayReport
    proxy_stats: List[ProxyStats]
    origin_requests: int
    #: Response-body bytes the origin served during the replay -- the
    #: cluster-level "bytes from origin" the placement benchmark ranks
    #: cooperation policies by.
    origin_bytes: int = 0

    @property
    def total_hit_ratio(self) -> float:
        """Local + remote hits over all client requests."""
        requests = sum(s.http_requests for s in self.proxy_stats)
        hits = sum(s.local_hits + s.remote_hits for s in self.proxy_stats)
        return hits / requests if requests else 0.0

    @property
    def udp_total(self) -> int:
        """UDP datagrams sent by all proxies (the paper's headline
        ICP-overhead number)."""
        return sum(s.udp_sent for s in self.proxy_stats)


class ProxyCluster:
    """An origin + N cooperating proxies on localhost.

    Use as an async context manager::

        async with ProxyCluster(num_proxies=4, mode=ProxyMode.SC_ICP) as cluster:
            result = await cluster.replay(trace)
    """

    def __init__(
        self,
        num_proxies: int = 4,
        mode: ProxyMode = ProxyMode.SC_ICP,
        cache_capacity: int = 4 * 1024 * 1024,
        origin_delay: float = 0.0,
        base_config: Optional[ProxyConfig] = None,
        summary: Optional[SummaryConfig] = None,
        update_policy: Optional[UpdatePolicy] = None,
        cooperation: Optional[CooperationPolicy] = None,
        replication: Optional[int] = None,
    ) -> None:
        if num_proxies < 1:
            raise ConfigurationError("num_proxies must be >= 1")
        self.num_proxies = num_proxies
        self.mode = mode
        template = base_config or ProxyConfig()
        overrides: dict = {}
        if summary is not None:
            overrides["summary"] = summary
        if update_policy is not None:
            overrides["update_policy"] = update_policy
        if cooperation is not None:
            overrides["cooperation"] = CooperationPolicy.parse(cooperation)
        if replication is not None:
            overrides["replication"] = replication
        self._template = replace(
            template,
            mode=mode,
            cache_capacity=cache_capacity,
            http_port=0,
            icp_port=0,
            **overrides,
        )
        self._configs = [
            replace(self._template, name=f"proxy{i}")
            for i in range(num_proxies)
        ]
        self.origin = OriginServer(delay=origin_delay)
        self.proxies: List[SummaryCacheProxy] = []

    async def __aenter__(self) -> "ProxyCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def start(self) -> None:
        """Start the origin, the proxies, and wire the full mesh."""
        await self.origin.start()
        self.proxies = [
            SummaryCacheProxy(cfg, self.origin.address)
            for cfg in self._configs
        ]
        for proxy in self.proxies:
            await proxy.start()
        addresses = [proxy.address() for proxy in self.proxies]
        for i, proxy in enumerate(self.proxies):
            proxy.set_peers(
                [addr for j, addr in enumerate(addresses) if j != i]
            )

    async def stop(self) -> None:
        """Stop every proxy and the origin."""
        for proxy in self.proxies:
            await proxy.stop()
        self.proxies = []
        await self.origin.stop()

    async def add_proxy(self) -> SummaryCacheProxy:
        """Start one more proxy and join it to the running cluster.

        The newcomer learns the full mesh via :meth:`~SummaryCacheProxy.
        set_peers`; every existing proxy admits it through
        :meth:`~SummaryCacheProxy.add_peer`, which rebalances each
        placement view and invalidates the entries the newcomer now
        owns.
        """
        config = replace(self._template, name=f"proxy{len(self.proxies)}")
        proxy = SummaryCacheProxy(config, self.origin.address)
        await proxy.start()
        address = proxy.address()
        proxy.set_peers([peer.address() for peer in self.proxies])
        for existing in self.proxies:
            existing.add_peer(address)
        self.proxies.append(proxy)
        self._configs.append(config)
        self.num_proxies = len(self.proxies)
        return proxy

    async def remove_proxy(self, index: int) -> None:
        """Stop the proxy at *index* and retire it from every peer view."""
        departed = self.proxies.pop(index)
        self._configs.pop(index)
        self.num_proxies = len(self.proxies)
        await departed.stop()
        for survivor in self.proxies:
            survivor.remove_peer(departed.config.name)

    def driver_for(self, proxy_index: int) -> ClientDriver:
        """A client driver bound to proxy *proxy_index*."""
        proxy = self.proxies[proxy_index]
        return ClientDriver(proxy.config.host, proxy.http_port)

    def targets(self) -> List[Tuple[str, int]]:
        """``(host, http_port)`` scrape targets for the aggregator."""
        return [
            (proxy.config.host, proxy.http_port) for proxy in self.proxies
        ]

    async def snapshot(self) -> "ClusterSnapshot":
        """Scrape every proxy and fuse the result
        (:func:`repro.obs.cluster.scrape_cluster`)."""
        from repro.obs.cluster import scrape_cluster

        return await scrape_cluster(self.targets())

    async def replay(
        self,
        trace: Trace,
        assignment: str = "client-bound",
        clients_per_proxy: int = 4,
    ) -> ClusterResult:
        """Replay *trace* through the cluster.

        :func:`~repro.traces.partition.client_streams` deals it as the
        DES does: ``"client-bound"`` (experiment 3) keeps each trace
        client's binding to a proxy, ``"round-robin"`` (experiment 4)
        keeps global order, and each proxy's share goes to
        ``clients_per_proxy`` serial drivers that run concurrently (the
        benchmark's no-think-time client processes).
        """
        report = await replay_concurrently(
            [
                (self.driver_for(index), requests)
                for index, requests in client_streams(
                    trace, self.num_proxies, clients_per_proxy, assignment
                )
            ]
        )
        return ClusterResult(
            client_report=report,
            proxy_stats=[proxy.stats for proxy in self.proxies],
            origin_requests=self.origin.stats.requests,
            origin_bytes=self.origin.stats.bytes_served,
        )
