"""Tests for the proxy load generator."""

from __future__ import annotations

import asyncio
from dataclasses import replace

import pytest

from repro.benchmarkkit.loadgen import (
    LoadGenConfig,
    histogram_quantile,
    render_comparison,
    run_loadgen,
)
from repro.summaries import SummaryConfig
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode


BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)

SMALL = LoadGenConfig(
    clients=3,
    requests_per_client=10,
    target_hit_ratio=0.3,
    mean_size=1024,
    max_size=8 * 1024,
    seed=7,
)


def run(coro):
    return asyncio.run(coro)


async def _run_phase(config: LoadGenConfig, base: ProxyConfig):
    async with ProxyCluster(
        num_proxies=1,
        mode=ProxyMode.NO_ICP,
        cache_capacity=4 * 1024 * 1024,
        base_config=base,
    ) as cluster:
        targets = [
            (p.config.host, p.http_port) for p in cluster.proxies
        ]
        return await run_loadgen(
            targets, config, proxies=cluster.proxies
        )


class TestRunLoadgen:
    def test_counts_and_latency_populated(self):
        result = run(_run_phase(SMALL, BASE_CONFIG))
        assert result.requests == 30
        assert result.errors == 0
        assert result.requests_per_second > 0
        assert 0 < result.latency_p50_ms <= result.latency_p99_ms
        assert result.bytes_received > 0
        assert result.connections_opened == 3  # one per keep-alive client
        assert result.proxy_phase_p50_ms is not None
        # Every request is accounted to a cache source.
        assert sum(result.cache_sources.values()) == 30

    def test_requires_targets(self):
        with pytest.raises(ConfigurationError):
            run(run_loadgen([], SMALL))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(clients=0)
        with pytest.raises(ConfigurationError):
            LoadGenConfig(requests_per_client=0)


class TestOriginAccounting:
    def test_origin_deltas_do_not_bleed_across_runs(self):
        """bytes_from_origin counts only the run's own fetches even
        when consecutive runs share one origin server."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                cache_capacity=4 * 1024 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                targets = [
                    (p.config.host, p.http_port) for p in cluster.proxies
                ]
                first = await run_loadgen(
                    targets,
                    SMALL,
                    proxies=cluster.proxies,
                    origin=cluster.origin,
                )
                # Same streams again: the cache is warm, so the second
                # run fetches nothing new from the origin.
                second = await run_loadgen(
                    targets,
                    SMALL,
                    proxies=cluster.proxies,
                    origin=cluster.origin,
                )
            return first, second

        first, second = run(scenario())
        assert first.origin_requests is not None
        assert first.origin_requests > 0
        assert first.bytes_from_origin > 0
        assert second.origin_requests == 0
        assert second.bytes_from_origin == 0

    def test_none_without_origin(self):
        result = run(_run_phase(SMALL, BASE_CONFIG))
        assert result.origin_requests is None
        assert result.bytes_from_origin is None
        assert result.peer_fetches is not None  # proxies were passed

    def test_peer_fetches_counted_under_carp(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.NO_ICP,
                cache_capacity=4 * 1024 * 1024,
                base_config=replace(BASE_CONFIG, cooperation="carp"),
            ) as cluster:
                targets = [
                    (p.config.host, p.http_port) for p in cluster.proxies
                ]
                return await run_loadgen(
                    targets,
                    SMALL,
                    proxies=cluster.proxies,
                    origin=cluster.origin,
                )

        result = run(scenario())
        assert result.errors == 0
        assert result.peer_fetches > 0


class TestReporting:
    def test_render_one_line_per_run(self):
        result = run(_run_phase(SMALL, BASE_CONFIG))
        text = render_comparison([result, result])
        assert len(text.splitlines()) == 2
        assert "30 requests (0 errors)" in text
        # Proxies were passed, the origin was not.
        assert "peer fetches" in text
        assert "origin bytes" not in text


class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "t_seconds", buckets=(0.1, 0.2, 0.4)
        )
        for _ in range(100):
            hist.observe(0.15)
        q50 = histogram_quantile(hist, 0.5)
        assert 0.1 <= q50 <= 0.2

    def test_empty_histogram_is_none(self):
        registry = MetricsRegistry()
        hist = registry.histogram("e_seconds", buckets=(0.1,))
        assert histogram_quantile(hist, 0.5) is None
