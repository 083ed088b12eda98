"""Experiment harnesses producing the paper's overhead tables.

:func:`run_overhead_experiment` reproduces the Table II setup: four
proxies, 30 benchmark clients each, a tunable inherent hit ratio, no
request overlap between clients (hence no remote hits -- ICP's worst
case), origin replies delayed one second.

:func:`run_replay_experiment` reproduces the Table IV/V setup: replay a
trace (the paper uses the first 24,000 UPisa requests) through the
cluster under either client-bound or round-robin assignment; here remote
hits do occur, so the experiment also shows SC-ICP's latency benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.proxy.config import ProxyMode
from repro.benchmarkkit.wisconsin import WisconsinConfig, generate_client_streams
from repro.simulation.costs import CostModel
from repro.simulation.engine import Engine
from repro.simulation.network import NetworkModel
from repro.simulation.nodes import (
    SimClient,
    SimOrigin,
    SimProxy,
    SimProxyConfig,
    connect,
)
from repro.traces.model import Trace
from repro.traces.partition import client_streams


@dataclass
class ExperimentResult:
    """One table row: what the paper measures for one protocol config."""

    mode: str
    hit_ratio: float
    remote_hit_ratio: float
    mean_latency: float
    user_cpu: float
    system_cpu: float
    udp_sent: int
    udp_received: int
    tcp_sent: int
    tcp_received: int
    duration: float
    requests: int
    false_query_rounds: int = 0
    dirupdates_sent: int = 0

    @property
    def udp_messages(self) -> int:
        """UDP datagrams sent and received by all proxies."""
        return self.udp_sent + self.udp_received

    @property
    def total_packets(self) -> int:
        """Total IP packets handled by the proxies' interfaces."""
        return (
            self.udp_sent + self.udp_received + self.tcp_sent + self.tcp_received
        )

    def overhead_vs(self, baseline: "ExperimentResult") -> dict:
        """Percentage increases over *baseline* (the paper's Overhead row)."""

        def pct(ours: float, theirs: float) -> float:
            if theirs == 0:
                return float("inf") if ours else 0.0
            return 100.0 * (ours - theirs) / theirs

        return {
            "packets": pct(self.total_packets, baseline.total_packets),
            "user_cpu": pct(self.user_cpu, baseline.user_cpu),
            "system_cpu": pct(self.system_cpu, baseline.system_cpu),
            "latency": pct(self.mean_latency, baseline.mean_latency),
        }


def _build_cluster(
    engine: Engine,
    num_proxies: int,
    proxy_config: SimProxyConfig,
    network: NetworkModel,
    origin_delay: float,
):
    origin = SimOrigin(engine, delay=origin_delay)
    costs = CostModel()
    proxies = [
        SimProxy(engine, i, proxy_config, costs, network, origin)
        for i in range(num_proxies)
    ]
    connect(proxies)
    return origin, proxies


#: Interval between neighbour keep-alive datagrams.  The paper's
#: baseline interproxy traffic "with no ICP is keep-alive messages";
#: this constant sets their rate in every mode.  It is calibrated so
#: the full-size Table II experiment shows ICP's UDP traffic at the
#: paper's 73x-90x over the keep-alive baseline.
KEEPALIVE_INTERVAL = 1.5


def _collect(
    mode: ProxyMode,
    proxies: Sequence[SimProxy],
    clients: Sequence[SimClient],
    duration: float,
    keepalive_interval: float = KEEPALIVE_INTERVAL,
) -> ExperimentResult:
    requests = sum(p.http_requests for p in proxies)
    hits = sum(p.local_hits + p.remote_hits for p in proxies)
    remote = sum(p.remote_hits for p in proxies)
    latencies = [lat for c in clients for lat in c.latencies]
    # Keep-alive accounting: each proxy pings every neighbour once per
    # interval for the whole run, in every mode (counted analytically
    # rather than as events -- they never interact with anything).
    keepalives_per_proxy = (
        (len(proxies) - 1) * int(duration / keepalive_interval)
        if keepalive_interval > 0
        else 0
    )
    keepalive_total = keepalives_per_proxy * len(proxies)
    return ExperimentResult(
        mode=mode.value,
        hit_ratio=hits / requests if requests else 0.0,
        remote_hit_ratio=remote / requests if requests else 0.0,
        mean_latency=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        user_cpu=sum(p.cpu_account.user for p in proxies),
        system_cpu=sum(p.cpu_account.system for p in proxies),
        udp_sent=sum(p.counters.udp_sent for p in proxies)
        + keepalive_total,
        udp_received=sum(p.counters.udp_received for p in proxies)
        + keepalive_total,
        tcp_sent=sum(p.counters.tcp_sent for p in proxies),
        tcp_received=sum(p.counters.tcp_received for p in proxies),
        duration=duration,
        requests=requests,
        false_query_rounds=sum(p.false_query_rounds for p in proxies),
        dirupdates_sent=sum(p.dirupdates_sent for p in proxies),
    )


def run_overhead_experiment(
    mode: ProxyMode,
    num_proxies: int = 4,
    clients_per_proxy: int = 30,
    requests_per_client: int = 200,
    target_hit_ratio: float = 0.25,
    origin_delay: float = 1.0,
    proxy_config: Optional[SimProxyConfig] = None,
    seed: int = 1,
) -> ExperimentResult:
    """The Table II experiment for one protocol *mode*.

    Returns the aggregated row; run once per mode and compare with
    :meth:`ExperimentResult.overhead_vs`.
    """
    engine = Engine()
    network = NetworkModel()
    config = replace(proxy_config or SimProxyConfig(), mode=mode)
    origin, proxies = _build_cluster(
        engine, num_proxies, config, network, origin_delay
    )

    streams = generate_client_streams(
        WisconsinConfig(
            num_clients=num_proxies * clients_per_proxy,
            requests_per_client=requests_per_client,
            target_hit_ratio=target_hit_ratio,
            seed=seed,
        )
    )
    clients = []
    for client_index, stream in enumerate(streams):
        proxy = proxies[client_index % num_proxies]
        client = SimClient(engine, proxy, stream, network)
        clients.append(client)
        client.start()

    duration = engine.run()
    return _collect(mode, proxies, clients, duration)


def run_replay_experiment(
    trace: Trace,
    mode: ProxyMode,
    num_proxies: int = 4,
    clients_per_proxy: int = 20,
    assignment: str = "client-bound",
    origin_delay: float = 1.0,
    proxy_config: Optional[SimProxyConfig] = None,
) -> ExperimentResult:
    """The Table IV/V experiment: replay *trace* under *assignment*.

    ``assignment`` deals the trace as the live cluster does
    (:func:`~repro.traces.partition.client_streams`): ``"client-bound"``
    keeps each trace client's binding to a proxy (experiment 3),
    ``"round-robin"`` keeps global order (experiment 4).
    """
    engine = Engine()
    network = NetworkModel()
    config = replace(proxy_config or SimProxyConfig(), mode=mode)
    origin, proxies = _build_cluster(
        engine, num_proxies, config, network, origin_delay
    )

    clients = [
        SimClient(engine, proxies[index], requests, network)
        for index, requests in client_streams(
            trace, num_proxies, clients_per_proxy, assignment
        )
    ]
    for client in clients:
        client.start()

    duration = engine.run()
    return _collect(mode, proxies, clients, duration)
