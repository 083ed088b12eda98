"""A load generator for the live proxy data plane.

Replays the Wisconsin Proxy Benchmark workload (Section IV) over N
concurrent clients against running proxies and measures what the
paper's prototype claims rest on: sustained requests/sec and tail
latency on real sockets.  Each client is a serial
:class:`~repro.proxy.client.ClientDriver` (the benchmark's
"no thinking time" client processes) riding one persistent
connection; clients run concurrently and are dealt round-robin across
the target proxies.

Latency is measured client-side per request (exact percentiles over
every sample) and cross-checked against the proxies'
``proxy_request_phase_seconds`` obs histograms, whose bucket-
interpolated quantiles ride along in the result.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchmarkkit.wisconsin import (
    WisconsinConfig,
    generate_client_streams,
)
from repro.errors import ConfigurationError, ProxyError, ReproError
from repro.obs.registry import Histogram
from repro.proxy.client import ClientDriver
from repro.proxy.origin import OriginServer
from repro.proxy.server import SummaryCacheProxy
from repro.traces.model import Request


@dataclass(frozen=True)
class LoadGenConfig:
    """Parameters of one load-generation run."""

    #: Concurrent clients (each serial, no think time).
    clients: int = 16
    requests_per_client: int = 200
    #: Inherent hit ratio of each client's stream (Wisconsin knob).
    target_hit_ratio: float = 0.25
    mean_size: int = 8 * 1024
    #: Cap on Pareto body sizes; modest by default so the measured
    #: ceiling is connection handling, not loopback bandwidth.
    max_size: int = 256 * 1024
    seed: int = 1
    #: Per-request wall-clock budget; ``None`` disables.
    timeout: Optional[float] = 30.0
    #: Fraction of requests drawn from the cross-client shared pool
    #: (see :class:`~repro.benchmarkkit.wisconsin.WisconsinConfig`);
    #: 0.0 keeps the classic non-overlapping streams.
    shared_fraction: float = 0.0
    #: Distinct documents in the shared pool.
    shared_docs: int = 64

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError("clients must be >= 1")
        if self.requests_per_client < 1:
            raise ConfigurationError("requests_per_client must be >= 1")

    def workload(self) -> WisconsinConfig:
        """The Wisconsin workload this run replays."""
        return WisconsinConfig(
            num_clients=self.clients,
            requests_per_client=self.requests_per_client,
            target_hit_ratio=self.target_hit_ratio,
            mean_size=self.mean_size,
            max_size=self.max_size,
            seed=self.seed,
            shared_fraction=self.shared_fraction,
            shared_docs=self.shared_docs,
        )


@dataclass
class LoadGenResult:
    """What one load-generation run measured."""

    label: str
    clients: int
    requests: int
    errors: int
    elapsed_seconds: float
    requests_per_second: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    bytes_received: int
    connections_opened: int
    cache_sources: Dict[str, int] = field(default_factory=dict)
    #: Bucket-interpolated p50/p99 (ms) of the proxies' aggregated
    #: ``proxy_request_phase_seconds{phase="total"}`` histograms --
    #: the server-side cross-check of the client-side numbers.
    proxy_phase_p50_ms: Optional[float] = None
    proxy_phase_p99_ms: Optional[float] = None
    #: Origin-side accounting over this run (deltas, so runs sharing
    #: one origin do not bleed into each other); ``None`` when the
    #: caller did not pass the origin server.
    origin_requests: Optional[int] = None
    bytes_from_origin: Optional[int] = None
    #: Proxy-to-proxy fetches served during this run (discovery-based
    #: remote hits plus placement-routed forwards); ``None`` without
    #: in-process proxies.
    peer_fetches: Optional[int] = None


def _quantile(sorted_samples: Sequence[float], q: float) -> float:
    """Exact q-quantile (nearest-rank) of pre-sorted samples."""
    if not sorted_samples:
        return 0.0
    index = min(
        len(sorted_samples) - 1, max(0, round(q * (len(sorted_samples) - 1)))
    )
    return sorted_samples[index]


def histogram_quantile(histogram: Histogram, q: float) -> Optional[float]:
    """Bucket-interpolated q-quantile of an obs histogram, in seconds.

    Mirrors Prometheus ``histogram_quantile``: find the first bucket
    whose cumulative count covers the target rank and interpolate
    linearly inside it.  ``None`` when the histogram is empty.
    """
    cumulative = histogram.cumulative()
    if not cumulative or cumulative[-1][1] == 0:
        return None
    total = cumulative[-1][1]
    rank = q * total
    lower_bound = 0.0
    lower_count = 0
    for bound, count in cumulative:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            span = count - lower_count
            if span <= 0:
                return bound
            fraction = (rank - lower_count) / span
            return lower_bound + (bound - lower_bound) * fraction
        lower_bound, lower_count = bound, count
    return lower_bound


def aggregate_phase_quantiles(
    proxies: Sequence[SummaryCacheProxy], q: float
) -> Optional[float]:
    """q-quantile (seconds) over all proxies' total-phase histograms."""
    merged: Optional[Histogram] = None
    for proxy in proxies:
        histogram = proxy.registry.histogram(
            "proxy_request_phase_seconds",
            "wall time of one request phase",
            labels={"phase": "total"},
        )
        if merged is None:
            merged = Histogram(histogram.name, buckets=histogram.bounds)
        # Every proxy registers the phase histogram with one bucket
        # layout, so the per-bucket counts add slot by slot.
        merged.counts = [
            a + b for a, b in zip(merged.counts, histogram.counts)
        ]
    return None if merged is None else histogram_quantile(merged, q)


async def _run_client(
    driver: ClientDriver,
    requests: Sequence[Request],
    latencies: List[float],
) -> None:
    """Replay one client's stream, recording per-request latency."""
    try:
        for request in requests:
            start = perf_counter()
            try:
                await driver.fetch(request.url, size=request.size)
            except (ProxyError, ReproError, ConnectionError, OSError):
                # fetch() already counted the error in the report.
                continue
            finally:
                latencies.append(perf_counter() - start)
    finally:
        await driver.close()


async def run_loadgen(
    targets: Sequence[Tuple[str, int]],
    config: LoadGenConfig,
    label: str = "",
    proxies: Sequence[SummaryCacheProxy] = (),
    origin: Optional[OriginServer] = None,
) -> LoadGenResult:
    """Replay the Wisconsin workload over concurrent clients.

    Parameters
    ----------
    targets:
        ``(host, http_port)`` of each proxy; clients are dealt
        round-robin across them.
    config:
        Workload shape.
    label:
        Name recorded in the result (default ``"loadgen"``).
    proxies:
        When the caller runs the cluster in-process, passing the proxy
        objects lets the result carry the server-side histogram
        quantiles and peer-fetch counts next to the client-side ones.
    origin:
        The cluster's origin server; when given, the result reports the
        requests and body bytes the origin served *during this run*
        (deltas against its counters at entry).
    """
    if not targets:
        raise ConfigurationError("loadgen needs at least one target proxy")
    streams = generate_client_streams(config.workload())
    drivers = [
        ClientDriver(
            *targets[client_id % len(targets)],
            timeout=config.timeout,
        )
        for client_id in range(len(streams))
    ]
    origin_requests_before = origin.stats.requests if origin else 0
    origin_bytes_before = origin.stats.bytes_served if origin else 0
    peer_fetches_before = sum(
        p.stats.peer_served_requests for p in proxies
    )
    latencies: List[float] = []
    tasks = [
        _run_client(driver, stream, latencies)
        for driver, stream in zip(drivers, streams)
    ]
    start = perf_counter()
    await asyncio.gather(*tasks)
    elapsed = perf_counter() - start

    requests = sum(d.report.requests for d in drivers)
    errors = sum(d.report.errors for d in drivers)
    sources: Dict[str, int] = {}
    for driver in drivers:
        for source, count in driver.report.cache_sources.items():
            sources[source] = sources.get(source, 0) + count
    latencies.sort()
    phase_p50 = aggregate_phase_quantiles(proxies, 0.50)
    phase_p99 = aggregate_phase_quantiles(proxies, 0.99)
    return LoadGenResult(
        label=label or "loadgen",
        clients=config.clients,
        requests=requests,
        errors=errors,
        elapsed_seconds=elapsed,
        requests_per_second=requests / elapsed if elapsed > 0 else 0.0,
        latency_p50_ms=_quantile(latencies, 0.50) * 1e3,
        latency_p99_ms=_quantile(latencies, 0.99) * 1e3,
        latency_mean_ms=(
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0
        ),
        bytes_received=sum(d.report.bytes_received for d in drivers),
        connections_opened=sum(d.connections_opened for d in drivers),
        cache_sources=sources,
        proxy_phase_p50_ms=None if phase_p50 is None else phase_p50 * 1e3,
        proxy_phase_p99_ms=None if phase_p99 is None else phase_p99 * 1e3,
        origin_requests=(
            origin.stats.requests - origin_requests_before
            if origin
            else None
        ),
        bytes_from_origin=(
            origin.stats.bytes_served - origin_bytes_before
            if origin
            else None
        ),
        peer_fetches=(
            sum(p.stats.peer_served_requests for p in proxies)
            - peer_fetches_before
            if proxies
            else None
        ),
    )


def render_comparison(
    results: Sequence[LoadGenResult],
) -> str:
    """Human-readable summary of one or more runs, one line each.

    Origin bytes and peer fetches appear when the run measured them
    (see :func:`run_loadgen`'s ``origin`` and ``proxies``).
    """
    lines = []
    for result in results:
        line = (
            f"{result.label}: {result.requests} requests "
            f"({result.errors} errors) in {result.elapsed_seconds:.2f}s "
            f"= {result.requests_per_second:,.0f} req/s; "
            f"p50 {result.latency_p50_ms:.2f} ms, "
            f"p99 {result.latency_p99_ms:.2f} ms; "
            f"{result.connections_opened} connections"
        )
        if result.bytes_from_origin is not None:
            line += f"; {result.bytes_from_origin:,} origin bytes"
        if result.peer_fetches is not None:
            line += f"; {result.peer_fetches} peer fetches"
        lines.append(line)
    return "\n".join(lines)
