"""End-to-end tests of the asyncio proxy prototype on localhost."""

from __future__ import annotations

import asyncio
from dataclasses import replace

import pytest

from repro.summaries import SummaryConfig
from repro.errors import ConfigurationError
from repro.protocol.core import NO_HOLDER
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import read_response, synth_body, write_request
from repro.traces.model import Request, Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from tests.proxy.conftest import copy_holds


def run(coro):
    return asyncio.run(coro)


def mini_trace(n: int = 300, clients: int = 8, docs: int = 100) -> Trace:
    return generate_trace(
        SyntheticTraceConfig(
            name="cluster-test",
            num_requests=n,
            num_clients=clients,
            num_documents=docs,
            mean_size=1024,
            max_size=32 * 1024,
            mod_probability=0.0,
            seed=21,
        )
    )


# A small cache so caching behaviour (not capacity) dominates; a small
# filter so DIRUPDATE messages stay light.
BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
    update_threshold=0.01,
)


class TestModes:
    def test_no_icp_sends_no_udp(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.NO_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                result = await cluster.replay(mini_trace())
            return result

        result = run(scenario())
        assert result.udp_total == 0
        assert sum(s.remote_hits for s in result.proxy_stats) == 0
        assert result.total_hit_ratio > 0.1

    def test_icp_finds_remote_hits(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                return await cluster.replay(mini_trace())

        result = run(scenario())
        assert sum(s.remote_hits for s in result.proxy_stats) > 0
        assert result.udp_total > 0
        # ICP multicasts on every miss: queries sent = (n-1) x misses
        # that reached the peer stage.
        queries = sum(s.icp_queries_sent for s in result.proxy_stats)
        assert queries % 2 == 0  # every query goes to exactly 2 peers

    def test_plain_icp_rounds_are_no_holder_not_false_hits(self):
        """Only a summary can promise a copy falsely: an ICP round that
        finds no holder is the core's no-holder outcome."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                drivers = [cluster.driver_for(i) for i in range(3)]
                for i in range(200):
                    await drivers[i % 3].fetch(
                        f"http://cold.com/d{i}", size=256
                    )
                return (
                    sum(p.stats.false_query_rounds for p in cluster.proxies),
                    [
                        root.attributes.get("outcome")
                        for p in cluster.proxies
                        for root in p.spans.spans(name="http.request")
                    ],
                )

        false_rounds, outcomes = run(scenario())
        assert false_rounds == 0
        assert outcomes == [NO_HOLDER] * 200

    def test_sc_icp_matches_icp_hit_ratio_with_less_udp(self):
        async def scenario(mode):
            async with ProxyCluster(
                num_proxies=3,
                mode=mode,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                return await cluster.replay(mini_trace())

        icp = run(scenario(ProxyMode.ICP))
        sc = run(scenario(ProxyMode.SC_ICP))
        assert sc.total_hit_ratio > icp.total_hit_ratio - 0.05
        icp_queries = sum(s.icp_queries_sent for s in icp.proxy_stats)
        sc_queries = sum(s.icp_queries_sent for s in sc.proxy_stats)
        assert sc_queries < icp_queries / 2
        assert sum(s.dirupdates_sent for s in sc.proxy_stats) > 0

    def test_modes_serve_identical_hit_counts_for_disjoint_clients(self):
        # With disjoint per-proxy document spaces there are no remote
        # hits, so every mode must produce the same hit ratio (the
        # Table II control).
        requests = []
        for i in range(240):
            client = i % 6
            doc = (i // 12) * 6 + client  # disjoint per client
            requests.append(
                Request(float(i), client, f"http://c{client}.com/d{doc}", 512)
            )
        requests_twice = requests + [
            replace_ts(r, 240 + i) for i, r in enumerate(requests)
        ]
        trace = Trace(requests=requests_twice, name="disjoint")

        async def scenario(mode):
            async with ProxyCluster(
                num_proxies=3,
                mode=mode,
                cache_capacity=1024 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                # One serial driver per proxy: concurrent drivers would
                # let duplicate in-flight requests resolve differently
                # per mode and blur the comparison.
                return await cluster.replay(trace, clients_per_proxy=1)

        ratios = [
            run(scenario(mode)).total_hit_ratio
            for mode in (ProxyMode.NO_ICP, ProxyMode.ICP, ProxyMode.SC_ICP)
        ]
        assert ratios[0] == pytest.approx(ratios[1], abs=1e-9)
        assert ratios[0] == pytest.approx(ratios[2], abs=1e-9)


def replace_ts(request: Request, ts: float) -> Request:
    return Request(
        timestamp=ts,
        client_id=request.client_id,
        url=request.url,
        size=request.size,
        version=request.version,
    )


class TestDataIntegrity:
    def test_bodies_survive_proxy_and_peer_path(self):
        """Every byte served (direct, cached, or via a peer) matches the
        origin's deterministic content."""

        async def scenario():
            mismatches = []
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                d0 = cluster.driver_for(0)
                d1 = cluster.driver_for(1)
                for i in range(20):
                    url = f"http://data.com/doc{i}"
                    body0 = await d0.fetch(url, size=700 + i)
                    body1 = await d1.fetch(url, size=700 + i)
                    expected = synth_body(url, 700 + i)
                    if body0 != expected or body1 != expected:
                        mismatches.append(url)
            return mismatches

        assert run(scenario()) == []

    def test_only_if_cached_gets_504_on_miss(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                base_config=BASE_CONFIG,
            ) as cluster:
                proxy = cluster.proxies[0]
                reader, writer = await asyncio.open_connection(
                    proxy.config.host, proxy.http_port
                )
                write_request(
                    writer,
                    "http://nowhere.com/x",
                    {"X-Only-If-Cached": "1"},
                )
                await writer.drain()
                response = await read_response(reader)
                writer.close()
                return response

        assert run(scenario()).status == 504


class TestSummaryPropagation:
    def test_dirupdates_install_peer_summaries(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                d0 = cluster.driver_for(0)
                urls = [f"http://p.com/d{i}" for i in range(40)]
                for url in urls:
                    await d0.fetch(url, size=512)
                # Give datagrams a beat to land.
                await asyncio.sleep(0.1)
                proxy0, proxy1 = cluster.proxies
                addr0 = (proxy0.config.host, proxy0.icp_port)
                assert proxy1.peer_geometry(addr0) is not None
                hits = sum(copy_holds(proxy1, addr0, u) for u in urls)
                return urls, hits

        urls, hits = run(scenario())
        # The threshold delays the tail, but most inserted URLs must
        # already be visible at the peer.
        assert hits > len(urls) * 0.5

    def test_reset_peer_forgets_summary(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                d0 = cluster.driver_for(0)
                for i in range(40):
                    await d0.fetch(f"http://p.com/d{i}", size=512)
                await asyncio.sleep(0.1)
                proxy0, proxy1 = cluster.proxies
                addr = (proxy0.config.host, proxy0.icp_port)
                assert proxy1.peer_geometry(addr) is not None
                proxy1.reset_peer(addr)
                return proxy1.peer_geometry(addr), proxy1._candidate_peers(
                    "http://p.com/d0"
                )

        assert run(scenario()) == (None, [])


class TestClientDriver:
    def test_report_tracks_sources(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                base_config=BASE_CONFIG,
            ) as cluster:
                driver = cluster.driver_for(0)
                await driver.fetch("http://r.com/x", size=256)
                await driver.fetch("http://r.com/x", size=256)
                return driver.report

        report = run(scenario())
        assert report.requests == 2
        assert report.cache_sources.get("MISS") == 1
        assert report.cache_sources.get("HIT") == 1
        assert report.mean_latency > 0
        assert report.bytes_received == 512


class TestValidation:
    def test_cluster_requires_proxies(self):
        with pytest.raises(ConfigurationError):
            ProxyCluster(num_proxies=0)

    def test_unknown_assignment(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, base_config=BASE_CONFIG
            ) as cluster:
                await cluster.replay(mini_trace(10), assignment="zigzag")

        with pytest.raises(ConfigurationError):
            run(scenario())

    def test_digest_encoding_requires_bloom_summary(self):
        # Whole-filter digests (ICP_OP_DIGEST) are a Bloom-only wire
        # form; set representations must stick with delta updates.
        with pytest.raises(ConfigurationError):
            ProxyConfig(
                summary=SummaryConfig(kind="exact-directory"),
                update_encoding="digest",
            )

    def test_non_bloom_summaries_accepted(self):
        for kind in ("exact-directory", "server-name"):
            config = ProxyConfig(summary=SummaryConfig(kind=kind))
            assert config.summary.kind == kind


class TestDigestEncoding:
    def test_digest_updates_install_peer_summaries(self):
        """The cache-digest variant (whole-filter ICP_OP_DIGEST chunks)
        propagates summaries just like DIRUPDATE deltas."""

        async def scenario():
            config = replace(BASE_CONFIG, update_encoding="digest")
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=config,
            ) as cluster:
                d0 = cluster.driver_for(0)
                urls = [f"http://dg.com/d{i}" for i in range(40)]
                for url in urls:
                    await d0.fetch(url, size=512)
                await asyncio.sleep(0.1)
                proxy0, proxy1 = cluster.proxies
                addr0 = (proxy0.config.host, proxy0.icp_port)
                assert proxy1.peer_geometry(addr0) is not None
                hits = sum(copy_holds(proxy1, addr0, u) for u in urls)
                # Proxy 1 can now take remote hits via the digest view.
                d1 = cluster.driver_for(1)
                await d1.fetch(urls[0], size=512)
                return urls, hits, proxy1.stats

        urls, hits, stats = run(scenario())
        assert hits > len(urls) * 0.5
        assert stats.remote_hits == 1

    def test_bad_encoding_rejected(self):
        with pytest.raises(ConfigurationError):
            replace(BASE_CONFIG, update_encoding="carrier-pigeon")


class TestStatsEndpoint:
    def test_metrics_json_reflects_activity(self):
        import json

        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                base_config=BASE_CONFIG,
            ) as cluster:
                driver = cluster.driver_for(0)
                await driver.fetch("http://s.com/a", size=256)
                await driver.fetch("http://s.com/a", size=256)
                proxy = cluster.proxies[0]
                reader, writer = await asyncio.open_connection(
                    proxy.config.host, proxy.http_port
                )
                write_request(writer, "/metrics?format=json")
                await writer.drain()
                response = await read_response(reader)
                writer.close()
                return response

        response = run(scenario())
        assert response.status == 200
        assert response.header("content-type") == "application/json"
        doc = json.loads(response.body)
        values = {
            record["name"]: record["value"]
            for record in doc["metrics"]
            if record["kind"] != "histogram"
        }
        assert values["proxy_http_requests_total"] == 2
        assert values["proxy_local_hits_total"] == 1
        assert values["proxy_cache_entries"] == 1
        assert doc["mode"] == "no-icp"
        assert values["proxy_cache_used_bytes"] == 256


class TestSummaryResize:
    def test_filter_grows_and_peers_resync(self):
        """When the cache holds far more documents than the filter was
        sized for, the proxy rebuilds at double the bits and resyncs
        peers with a whole-filter digest."""

        async def scenario():
            config = replace(
                BASE_CONFIG,
                expected_doc_size=32 * 1024,  # drastically undersized
                update_threshold=0.05,
            )
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=2 * 2**20,
                base_config=config,
            ) as cluster:
                d0 = cluster.driver_for(0)
                urls = [f"http://rs.com/d{i}" for i in range(200)]
                for url in urls:
                    await d0.fetch(url, size=512)
                await asyncio.sleep(0.1)
                proxy0, proxy1 = cluster.proxies
                addr0 = (proxy0.config.host, proxy0.icp_port)
                geometry = proxy1.peer_geometry(addr0)
                coverage = sum(copy_holds(proxy1, addr0, u) for u in urls)
                d1 = cluster.driver_for(1)
                await d1.fetch(urls[3], size=512)
                return proxy0, proxy1, geometry, coverage, urls

        proxy0, proxy1, geometry, coverage, urls = run(scenario())
        assert proxy0.stats.summary_resizes >= 1
        assert geometry == proxy0.summary.geometry
        assert coverage > len(urls) * 0.9
        assert proxy1.stats.remote_hits == 1

    def test_resize_disabled(self):
        async def scenario():
            config = replace(
                BASE_CONFIG,
                expected_doc_size=32 * 1024,
                resize_threshold=0.0,
            )
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.SC_ICP,
                cache_capacity=2 * 2**20,
                base_config=config,
            ) as cluster:
                d0 = cluster.driver_for(0)
                for i in range(150):
                    await d0.fetch(f"http://nr.com/d{i}", size=512)
                return cluster.proxies[0].stats

        stats = run(scenario())
        assert stats.summary_resizes == 0
