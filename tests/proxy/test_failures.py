"""Failure-injection tests for the proxy prototype.

The paper's implementation "leverages Squid's built-in support to
detect failure and recovery of neighbor proxies, and reinitializes a
failed neighbor's bit array when it recovers."  These tests verify the
prototype degrades gracefully when peers vanish mid-run.
"""

from __future__ import annotations

import asyncio

from repro.summaries import SummaryConfig
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.config import PeerAddress
from repro.proxy.http import open_http, render_request, synth_body

BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
    icp_timeout=0.15,
)


def run(coro):
    return asyncio.run(coro)


class TestDeadPeers:
    def test_icp_times_out_and_falls_back_to_origin(self):
        """Queries to a dead peer (nothing listening) must not wedge a
        request: the ICP timeout expires and the origin serves it."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.ICP,
                base_config=BASE_CONFIG,
            ) as cluster:
                proxy = cluster.proxies[0]
                # Point the proxy at a peer that does not exist.
                proxy.set_peers(
                    [
                        PeerAddress(
                            name="ghost",
                            host="127.0.0.1",
                            http_port=1,  # nothing listens here
                            icp_port=1,
                        )
                    ]
                )
                driver = cluster.driver_for(0)
                body = await driver.fetch("http://x.com/doc", size=500)
                return body, proxy.stats

        body, stats = run(scenario())
        assert body == synth_body("http://x.com/doc", 500)
        assert stats.origin_fetches == 1
        assert stats.icp_queries_sent == 1
        assert stats.icp_replies_received == 0

    def test_peer_dying_mid_run_does_not_break_service(self):
        """Stop one proxy of a live SC-ICP pair; the survivor keeps
        serving (stale summary entries become failed peer fetches or
        timeouts, then origin fallbacks)."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                d0 = cluster.driver_for(0)
                d1 = cluster.driver_for(1)
                urls = [f"http://warm.com/d{i}" for i in range(30)]
                for url in urls:
                    await d1.fetch(url, size=400)  # warm proxy 1
                await asyncio.sleep(0.05)  # let DIRUPDATEs land

                # Proxy 1 dies; proxy 0 still holds its summary.
                await cluster.proxies[1].stop()

                bodies = []
                for url in urls[:5]:
                    bodies.append(await d0.fetch(url, size=400))
                return urls[:5], bodies, cluster.proxies[0].stats

        urls, bodies, stats = run(scenario())
        assert [len(b) for b in bodies] == [400] * 5
        for url, body in zip(urls, bodies):
            assert body == synth_body(url, 400)
        # Every request was ultimately satisfied (origin fallback).
        assert stats.origin_fetches == 5

    def test_garbage_datagrams_are_ignored(self):
        """Random bytes on the ICP port must not crash the proxy."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.SC_ICP,
                base_config=BASE_CONFIG,
            ) as cluster:
                proxy = cluster.proxies[0]
                loop = asyncio.get_event_loop()
                transport, _protocol = (
                    await loop.create_datagram_endpoint(
                        asyncio.DatagramProtocol,
                        remote_addr=(
                            proxy.config.host,
                            proxy.icp_port,
                        ),
                    )
                )
                transport.sendto(b"\x00\x01garbage")
                transport.sendto(b"")
                transport.sendto(b"\xff" * 200)
                transport.close()
                await asyncio.sleep(0.05)
                # The proxy still serves.
                driver = cluster.driver_for(0)
                body = await driver.fetch("http://ok.com/x", size=128)
                return body

        assert run(scenario()) == synth_body("http://ok.com/x", 128)


class TestDeadOrigin:
    def test_failed_origin_fetch_answers_502_and_keeps_the_connection(self):
        """A client miss the origin cannot serve gets a 502, not a
        dropped connection, and the next request on the same
        keep-alive connection is served."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                proxy = cluster.proxies[0]
                client = await open_http(proxy.config.host, proxy.http_port)
                await cluster.origin.stop()
                client.send(
                    render_request(
                        "http://gone.com/new",
                        {"X-Size": "64", "X-SC-Trace": "cafecafe-00000001"},
                        keep_alive=True,
                    )
                )
                failed = await client.response()
                client.send(render_request("/metrics", keep_alive=True))
                metrics = await client.response()
                client.close()
                return failed, metrics, proxy.spans.spans()

        failed, metrics, spans = run(scenario())
        assert failed.status == 502
        assert failed.header("x-cache") == "MISS"
        assert failed.keep_alive
        assert failed.header("x-sc-trace").startswith("cafecafe-")
        assert metrics.status == 200
        (root,) = [s for s in spans if s.name == "http.request"]
        assert root.status == "error"
        assert root.attributes["origin_fetch"] == "gone"
