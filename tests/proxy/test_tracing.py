"""Distributed-tracing integration tests across a live cluster.

The headline scenario is the acceptance case for cross-proxy tracing:
one client request produces one trace id whose reassembled spans cover
the client request (its summary lookup, SC-ICP query round and peer
fetch recorded as the root span's attributes), the query and the fetch
as the holder saw them -- with spans retained in *two different
proxies'* rings and fused back together by the cluster aggregator.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.obs.spans import TRACE_HEADER
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import open_http, render_request
from tests.proxy.conftest import copy_holds


def run(coro):
    return asyncio.run(coro)


BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
    # Ship a DIRUPDATE after every insert so the warmed document is
    # advertised to peers without waiting out a threshold.
    update_policy=ThresholdUpdatePolicy(0.0),
)


async def _wait_until_advertised(cluster, holder_index, seeker_index, url):
    """Poll until the seeker's copy of the holder's summary has *url*."""
    target = cluster.proxies[holder_index].address().icp_addr
    for _ in range(400):
        if copy_holds(cluster.proxies[seeker_index], target, url):
            return
        await asyncio.sleep(0.01)
    pytest.fail(f"{url} never appeared in the propagated summary")


class TestCrossProxyTrace:
    def test_remote_hit_trace_reassembles_across_rings(self):
        url = "/docs/shared-trace-doc"

        async def scenario():
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                warmer = cluster.driver_for(1)
                client = cluster.driver_for(0)
                try:
                    await warmer.fetch(url, size=2048)
                    await _wait_until_advertised(cluster, 1, 0, url)
                    body = await client.fetch(url, size=2048)
                    trace_id = client.last_trace
                    snapshot = await cluster.snapshot()
                finally:
                    await warmer.close()
                    await client.close()
                return body, trace_id, client.report, snapshot

        body, trace_id, report, snapshot = run(scenario())
        assert body
        assert report.cache_sources == {"REMOTE-HIT": 1}

        spans = snapshot.trace(trace_id)
        names = {span["name"] for span in spans}
        assert {"http.request", "icp.query", "peer.serve"} <= names
        # Spans for one trace id were retained in two proxies' rings.
        by_proxy = {span["proxy"] for span in spans}
        assert {"proxy0", "proxy1"} <= by_proxy

        (root,) = [s for s in spans if s["proxy"] == "proxy0"]
        assert root["name"] == "http.request"
        assert root["status"] == "ok"
        # The root joined the client driver's context: its parent is a
        # span id no ring retains, but the trace id is the client's.
        assert root["parent_id"] is not None
        attrs = root["attributes"]
        assert attrs["source"] == "REMOTE-HIT"
        assert attrs["outcome"] == "remote_hit"
        assert attrs["candidates"] >= 1
        assert attrs["peer"] == "proxy1"
        assert attrs["peer_fetch"] == "ok"
        assert attrs["peer_source"] == "HIT"
        assert attrs["icp_round_s"] > 0.0
        assert attrs["peer_fetch_s"] > 0.0
        assert "icp.reply" in {event["kind"] for event in root["events"]}
        # The summary configuration is reported once per proxy.
        summary = snapshot.proxies["proxy0"].summary
        assert summary["representation"] == "bloom"
        assert summary["num_bits"] > 0

        query = next(s for s in spans if s["name"] == "icp.query")
        assert query["proxy"] in ("proxy1", "proxy2")
        assert query["attributes"]["hit"] in (True, False)
        assert query["parent_id"] == root["span_id"]

        serve = next(s for s in spans if s["name"] == "peer.serve")
        assert serve["proxy"] == "proxy1"
        assert serve["attributes"]["hit"] is True
        assert serve["parent_id"] == root["span_id"]

        # The fused snapshot counts this as a cross-proxy trace and the
        # remote hit shows up in the cluster-wide accounting.
        assert snapshot.as_dict()["cross_proxy_traces"] >= 1
        assert snapshot.total("proxy_remote_hits_total") == 1.0


class TestHeaderEcho:
    def test_proxy_echoes_and_joins_client_context(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                proxy = cluster.proxies[0]
                client = await open_http(proxy.config.host, proxy.http_port)
                try:
                    client.send(
                        render_request(
                            "/docs/echo?size=512",
                            headers={TRACE_HEADER: "cafecafe-00000001"},
                            keep_alive=False,
                        )
                    )
                    response = await client.response()
                finally:
                    client.close()
                    await client.closed
                spans = proxy.spans.trace(0xCAFECAFE)
                return response, [s.name for s in spans]

        response, names = run(scenario())
        assert response.status == 200
        # The echo carries the joined trace id and the proxy's own root
        # span id (the context a downstream caller would parent under).
        assert response.header(TRACE_HEADER).startswith("cafecafe-")
        assert response.header(TRACE_HEADER) != "cafecafe-00000001"
        assert "http.request" in names

    def test_requests_without_context_get_fresh_trace(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                proxy = cluster.proxies[0]
                client = await open_http(proxy.config.host, proxy.http_port)
                try:
                    client.send(
                        render_request("/docs/fresh?size=512", keep_alive=False)
                    )
                    response = await client.response()
                finally:
                    client.close()
                    await client.closed
                return response, proxy.spans.spans(name="http.request")

        response, roots = run(scenario())
        echoed = response.header(TRACE_HEADER)
        assert echoed  # the proxy minted a trace and reported it
        assert roots[0].trace_id != 0
        assert f"{roots[0].trace_id:08x}" == echoed.split("-")[0]


class TestTracingDisabled:
    def test_disabled_ring_retains_nothing_and_echoes_nothing(self):
        config = ProxyConfig(
            summary=SummaryConfig(kind="bloom", load_factor=8),
            expected_doc_size=1024,
            update_policy=ThresholdUpdatePolicy(0.0),
            trace_enabled=False,
        )

        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=config,
            ) as cluster:
                proxy = cluster.proxies[0]
                client = await open_http(proxy.config.host, proxy.http_port)
                try:
                    client.send(
                        render_request(
                            "/docs/dark?size=512",
                            headers={TRACE_HEADER: "cafecafe-00000001"},
                            keep_alive=False,
                        )
                    )
                    response = await client.response()
                finally:
                    client.close()
                    await client.closed
                snapshot = await cluster.snapshot()
                return response, snapshot

        response, snapshot = run(scenario())
        assert response.status == 200
        assert response.header(TRACE_HEADER) == ""
        snap = snapshot.proxies["proxy0"]
        assert snap.trace_enabled is False
        assert snap.spans == []
        assert snapshot.spans() == []


class TestRingCapacity:
    def test_small_ring_drops_and_counts(self):
        config = ProxyConfig(
            summary=SummaryConfig(kind="bloom", load_factor=8),
            expected_doc_size=1024,
            trace_capacity=4,
        )

        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                cache_capacity=512 * 1024,
                base_config=config,
            ) as cluster:
                driver = cluster.driver_for(0)
                try:
                    for i in range(12):
                        await driver.fetch(f"/docs/{i}", size=256)
                finally:
                    await driver.close()
                return await cluster.snapshot()

        snapshot = run(scenario())
        snap = snapshot.proxies["proxy0"]
        assert snap.trace_ring_capacity == 4
        assert len(snap.spans) <= 4
        assert snap.trace_ring_dropped > 0
        assert (
            snap.metric("trace_ring_dropped_total")
            == snap.trace_ring_dropped
        )
