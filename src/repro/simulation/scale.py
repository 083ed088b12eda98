"""The measured Section V-F run: 100 proxies in the DES, streamed feed.

Section V-F's 100-proxy numbers are a back-of-the-envelope
(:mod:`repro.analysis.scalability`); this harness runs the actual
configuration in the discrete-event simulator and reports the measured
update traffic, false-hit ratio, and protocol overhead next to the
extrapolation's predictions.

Two things make the run tractable:

- **streamed feeds** -- every simulated client consumes a lazy filtered
  scan of a re-iterable trace (a :class:`~repro.traces.model.Trace` or
  an mmap-backed :class:`~repro.traces.binary.BinaryTraceReader`), so
  the request stream is never materialized per proxy;
- **dissemination as an axis** -- DIRUPDATEs propagate either all-pairs
  (``unicast``, the paper's pattern) or through a k-ary relay tree
  (``hierarchy``), the alternative that keeps the updater's send load
  constant as the cluster grows (see
  :class:`~repro.simulation.nodes.SimProxyConfig`).
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Optional

from repro.analysis.scalability import extrapolate
from repro.errors import ConfigurationError
from repro.proxy.config import ProxyMode
from repro.simulation.costs import CostModel
from repro.simulation.engine import Engine
from repro.simulation.experiment import _build_cluster
from repro.simulation.network import NetworkModel
from repro.simulation.nodes import SimClient, SimProxyConfig
from repro.summaries import ThresholdUpdatePolicy
from repro.traces.model import Request
from repro.traces.partition import client_streams

#: Dissemination policies :func:`run_scale_experiment` accepts.
DISSEMINATION_POLICIES = ("unicast", "hierarchy")


def peak_rss_bytes() -> int:
    """This process's peak resident set size in bytes (high-water)."""
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.  The repo targets Linux.
    return maxrss * 1024


@dataclass
class ScaleResult:
    """Measured vs predicted quantities of one Section V-F cell."""

    num_proxies: int
    dissemination: str
    fanout: int
    requests: int
    hit_ratio: float
    remote_hit_ratio: float
    miss_ratio: float
    false_hit_ratio: float
    update_messages: int
    update_messages_per_request: float
    query_messages_per_request: float
    protocol_messages_per_request: float
    udp_sent: int
    udp_received: int
    sender_max_dirupdates: int
    summary_memory_bytes: int
    counter_memory_bytes: int
    mean_latency: float
    sim_duration: float
    wall_seconds: float
    peak_rss_bytes: int
    predicted: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def run_scale_experiment(
    trace: Iterable[Request],
    num_proxies: int = 100,
    dissemination: str = "unicast",
    fanout: int = 4,
    clients_per_proxy: int = 1,
    cache_capacity: int = 8 * 1024 * 1024,
    expected_doc_size: int = 8 * 1024,
    update_threshold: float = 0.01,
    origin_delay: float = 1.0,
    costs: Optional[CostModel] = None,
    network: Optional[NetworkModel] = None,
) -> ScaleResult:
    """Run the DES at *num_proxies* with the given dissemination policy.

    *trace* must be re-iterable (each simulated client opens its own
    scan): a materialized trace or a binary reader, not a bare
    generator.  Uses the ``threshold`` update policy so the measured
    update traffic is comparable with Section V-F's threshold
    calculation; the extrapolation is evaluated at this run's actual
    geometry (cache size, page size, load factor, measured miss ratio)
    and attached as ``predicted``.
    """
    if dissemination not in DISSEMINATION_POLICIES:
        raise ConfigurationError(
            f"dissemination must be one of {DISSEMINATION_POLICIES}, "
            f"got {dissemination!r}"
        )
    if iter(trace) is iter(trace):
        raise ConfigurationError(
            "run_scale_experiment needs a re-iterable trace (a Trace or "
            "BinaryTraceReader), not a one-shot generator"
        )
    config = SimProxyConfig(
        mode=ProxyMode.SC_ICP,
        cache_capacity=cache_capacity,
        expected_doc_size=expected_doc_size,
        update_policy=ThresholdUpdatePolicy(update_threshold),
        dissemination=dissemination,
        dissemination_fanout=fanout,
    )
    engine = Engine()
    network = network or NetworkModel()
    _origin, proxies = _build_cluster(
        engine, num_proxies, config, costs or CostModel(), network, origin_delay
    )
    # One lazy scan of *trace* per client: with an mmap reader a scan is
    # a sequential page-cache walk, so N proxies never hold N copies.
    clients = [
        SimClient(engine, proxies[index], requests, network)
        for index, requests in client_streams(
            trace, num_proxies, clients_per_proxy, lazy=True
        )
    ]
    for client in clients:
        client.start()

    wall_start = perf_counter()
    sim_duration = engine.run()
    wall_seconds = perf_counter() - wall_start

    requests = sum(p.http_requests for p in proxies)
    local_hits = sum(p.local_hits for p in proxies)
    remote_hits = sum(p.remote_hits for p in proxies)
    false_rounds = sum(p.false_query_rounds for p in proxies)
    queries = sum(p.icp_queries_sent for p in proxies)
    updates = sum(p.dirupdates_sent for p in proxies)
    latencies = [lat for c in clients for lat in c.latencies]
    miss_ratio = (
        1.0 - (local_hits + remote_hits) / requests if requests else 1.0
    )

    predicted = {}
    if num_proxies >= 2 and requests:
        estimate = extrapolate(
            num_proxies=num_proxies,
            cache_bytes=cache_capacity,
            page_size=expected_doc_size,
            load_factor=config.summary.load_factor,
            num_hashes=config.summary.num_hashes,
            update_threshold=update_threshold,
            counter_bits=config.summary.counter_width,
            miss_ratio=max(1e-9, min(1.0, miss_ratio)),
        )
        predicted = {
            "summary_memory_bytes": estimate.summary_memory_bytes,
            "counter_memory_bytes": estimate.counter_memory_bytes,
            "requests_between_updates": estimate.requests_between_updates,
            "update_messages_per_request": (
                estimate.update_messages_per_request
            ),
            "false_hit_queries_per_request": (
                estimate.false_hit_queries_per_request
            ),
            "protocol_messages_per_request": (
                estimate.protocol_messages_per_request
            ),
        }

    sample = proxies[0].node.local
    summary_memory = (
        sample.remote_size_bytes() * (num_proxies - 1)
        if num_proxies > 1
        else 0
    )
    counter_memory = sample.size_bytes() - sample.remote_size_bytes()
    return ScaleResult(
        num_proxies=num_proxies,
        dissemination=dissemination,
        fanout=fanout,
        requests=requests,
        hit_ratio=(
            (local_hits + remote_hits) / requests if requests else 0.0
        ),
        remote_hit_ratio=remote_hits / requests if requests else 0.0,
        miss_ratio=miss_ratio,
        false_hit_ratio=false_rounds / requests if requests else 0.0,
        update_messages=updates,
        update_messages_per_request=(
            updates / requests if requests else 0.0
        ),
        query_messages_per_request=(
            queries / requests if requests else 0.0
        ),
        protocol_messages_per_request=(
            (queries + updates) / requests if requests else 0.0
        ),
        udp_sent=sum(p.counters.udp_sent for p in proxies),
        udp_received=sum(p.counters.udp_received for p in proxies),
        sender_max_dirupdates=max(
            (p.dirupdates_sent for p in proxies), default=0
        ),
        summary_memory_bytes=summary_memory,
        counter_memory_bytes=counter_memory,
        mean_latency=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        sim_duration=sim_duration,
        wall_seconds=wall_seconds,
        peak_rss_bytes=peak_rss_bytes(),
        predicted=predicted,
    )
