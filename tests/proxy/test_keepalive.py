"""Keep-alive semantics of the proxy data plane.

Covers the proxy's client connections (one
:class:`~repro.proxy.http.HttpConnection` each): multiple requests on
one connection, pipelining order, ``Connection: close``
fallback, idle-timeout reaping (one deadline per connection, re-armed
by each request), mid-stream client disconnects,
per-connection request caps, upstream connection pooling, and
bit-identical cache behaviour of pooled versus unpooled upstream
fetches.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

from repro.summaries import SummaryConfig
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.client import ClientDriver
from repro.proxy.http import open_http, render_request, synth_body
from tests.proxy.conftest import trailing


def run(coro):
    return asyncio.run(coro)


BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)


async def _connect(cluster, proxy_index=0):
    proxy = cluster.proxies[proxy_index]
    return await open_http(proxy.config.host, proxy.http_port)


class TestKeepAliveLoop:
    def test_multiple_requests_one_connection(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                client = await _connect(cluster)
                responses = []
                for i in range(3):
                    client.send(
                        render_request(
                            f"http://ka.com/d{i}",
                            {"X-Size": "128"},
                            keep_alive=True,
                        )
                    )
                    responses.append(await client.response())
                client.close()
                return responses, cluster.proxies[0].stats

        responses, stats = run(scenario())
        assert [r.status for r in responses] == [200, 200, 200]
        assert all(r.keep_alive for r in responses)
        assert stats.http_requests == 3

    def test_pipelined_requests_answered_in_order(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                client = await _connect(cluster)
                urls = [f"http://pipe.com/d{i}" for i in range(5)]
                # Write every request before reading any response.
                for i, url in enumerate(urls):
                    client.send(
                        render_request(
                            url,
                            {"X-Size": str(200 + i)},
                            keep_alive=True,
                        )
                    )
                bodies = [(await client.response()).body for _ in urls]
                client.close()
                return urls, bodies

        urls, bodies = run(scenario())
        # Responses must arrive in request order, each with the right
        # (size-distinguishable, URL-deterministic) body.
        assert bodies == [
            synth_body(url, 200 + i) for i, url in enumerate(urls)
        ]

    def test_connection_close_fallback(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                client = await _connect(cluster)
                client.send(
                    render_request(
                        "http://cl.com/x", {"X-Size": "64"}, keep_alive=False
                    )
                )
                response = await client.response()
                # The proxy must close its side after a close response.
                rest = await trailing(client)
                return response, rest

        response, rest = run(scenario())
        assert response.status == 200
        assert not response.keep_alive
        assert rest == b""

    def test_http10_defaults_to_close(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                client = await _connect(cluster)
                client.send(
                    b"GET http://old.com/x HTTP/1.0\r\nX-Size: 64\r\n\r\n"
                )
                response = await client.response()
                rest = await trailing(client)
                return response, rest

        response, rest = run(scenario())
        assert response.status == 200
        assert not response.keep_alive
        assert rest == b""

    def test_idle_timeout_closes_connection(self):
        async def scenario():
            config = replace(BASE_CONFIG, idle_timeout=0.1)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                client = await _connect(cluster)
                client.send(
                    render_request(
                        "http://idle.com/x", {"X-Size": "64"}, keep_alive=True
                    )
                )
                response = await client.response()
                # Sit idle past the timeout; the proxy reaps us.
                rest = await asyncio.wait_for(trailing(client), timeout=2.0)
                return response, rest

        response, rest = run(scenario())
        assert response.keep_alive
        assert rest == b""

    def test_stalled_head_is_reaped_without_a_response(self):
        async def scenario():
            config = replace(BASE_CONFIG, idle_timeout=0.1)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                loop = asyncio.get_running_loop()
                client = await _connect(cluster)
                # Half a head: the request line and one header, never
                # the blank line that ends it.  Written past send(): no
                # response is awaited.
                client._transport.write(
                    b"GET http://stall.com/x HTTP/1.1\r\nX-Size: 64\r\n"
                )
                started = loop.time()
                answer = await asyncio.wait_for(trailing(client), timeout=2.0)
                waited = loop.time() - started
                registry = cluster.proxies[0].registry
                for _ in range(100):
                    if registry.value("proxy_connections_open") == 0:
                        break
                    await asyncio.sleep(0.01)
                return answer, waited, registry.value("proxy_connections_open")

        answer, waited, open_conns = run(scenario())
        assert answer == b""  # closed, and nothing written back
        assert waited >= 0.09
        assert open_conns == 0

    def test_idle_clock_restarts_with_every_request(self):
        async def scenario():
            config = replace(BASE_CONFIG, idle_timeout=0.1)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                client = await _connect(cluster)
                responses = []
                # 6 x 0.04 s = 0.24 s on one connection, more than twice
                # the timeout; no single gap reaches it.
                for i in range(6):
                    client.send(
                        render_request(
                            f"http://gap.com/d{i}",
                            {"X-Size": "64"},
                            keep_alive=True,
                        )
                    )
                    responses.append(await client.response())
                    await asyncio.sleep(0.04)
                client.close()
                return responses, cluster.proxies[0].stats

        responses, stats = run(scenario())
        assert [r.status for r in responses] == [200] * 6
        assert all(r.keep_alive for r in responses)
        assert stats.http_requests == 6

    def test_zero_idle_timeout_never_reaps(self):
        async def scenario():
            config = replace(BASE_CONFIG, idle_timeout=0)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                client = await _connect(cluster)
                statuses = []
                for i in range(2):
                    client.send(
                        render_request(
                            f"http://zero.com/d{i}",
                            {"X-Size": "64"},
                            keep_alive=True,
                        )
                    )
                    statuses.append((await client.response()).status)
                    await asyncio.sleep(0.3)
                open_conns = cluster.proxies[0].registry.value(
                    "proxy_connections_open"
                )
                client.close()
                return statuses, open_conns

        statuses, open_conns = run(scenario())
        assert statuses == [200, 200]
        assert open_conns == 1

    def test_stop_with_idle_connection_leaves_no_task_or_timer(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            timers = []
            call_at = loop.call_at

            def recording_call_at(when, callback, *args, **kwargs):
                handle = call_at(when, callback, *args, **kwargs)
                timers.append(handle)
                return handle

            loop.call_at = recording_call_at
            cluster = ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            )
            await cluster.start()
            client = await _connect(cluster)
            client.send(
                render_request(
                    "http://stop.com/x", {"X-Size": "64"}, keep_alive=True
                )
            )
            await client.response()
            await cluster.stop()  # the connection sits idle, mid-read
            me = asyncio.current_task()
            for _ in range(100):
                if not asyncio.all_tasks() - {me}:
                    break
                await asyncio.sleep(0)
            client.close()
            del loop.call_at
            pending = [
                h for h in timers
                if not h.cancelled() and h.when() > loop.time()
            ]
            return asyncio.all_tasks() - {me}, pending

        tasks, timers = run(scenario())
        assert tasks == set()
        assert timers == []

    def test_mid_stream_client_disconnect_is_survived(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                # Ask for a large body, then vanish without reading it
                # (written past send(): no response is awaited).
                client = await _connect(cluster)
                client._transport.write(
                    render_request(
                        "http://gone.com/big",
                        {"X-Size": str(4 * 1024 * 1024)},
                        keep_alive=True,
                    )
                )
                client.close()
                await client.closed
                # The proxy must still serve subsequent clients.
                driver = cluster.driver_for(0)
                body = await driver.fetch("http://gone.com/after", size=256)
                await driver.close()
                # Handler teardown is asynchronous; wait for the gauge
                # to confirm both connections were reaped.
                registry = cluster.proxies[0].registry
                open_conns = registry.value("proxy_connections_open")
                for _ in range(100):
                    if open_conns == 0:
                        break
                    await asyncio.sleep(0.02)
                    open_conns = registry.value("proxy_connections_open")
                return body, open_conns

        body, open_conns = run(scenario())
        assert body == synth_body("http://gone.com/after", 256)
        assert open_conns == 0

    def test_malformed_request_gets_400_and_close(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                client = await _connect(cluster)
                client.send(b"BLARGH\r\n\r\n")
                response = await client.response()
                rest = await trailing(client)
                return response, rest

        response, rest = run(scenario())
        assert response.status == 400
        assert not response.keep_alive
        assert rest == b""

    def test_oversized_head_gets_400_not_traceback(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                client = await _connect(cluster)
                # 20 KiB of padding blows the 16 KiB head cap.
                client.send(
                    b"GET http://big.com/x HTTP/1.1\r\n"
                    + b"X-Padding: " + b"a" * (20 * 1024) + b"\r\n\r\n"
                )
                response = await client.response()
                client.close()
                return response

        assert run(scenario()).status == 400


class TestClientDriverKeepAlive:
    def test_driver_reuses_one_connection(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                driver = cluster.driver_for(0)
                for i in range(5):
                    await driver.fetch(f"http://dr.com/d{i}", size=128)
                await driver.close()
                return driver

        driver = run(scenario())
        assert driver.report.requests == 5
        assert driver.connections_opened == 1

    def test_driver_reconnects_after_server_close(self):
        async def scenario():
            # Back-to-back fetches stay well inside the idle timeout; the
            # sleep between pairs outlasts it (and its reaping) by far.
            config = replace(BASE_CONFIG, idle_timeout=0.5)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                driver = cluster.driver_for(0)
                for i in range(6):
                    if i and i % 2 == 0:
                        # Outlast the idle timeout: the proxy hangs up.
                        await asyncio.sleep(1.2)
                    await driver.fetch(f"http://rc.com/d{i}", size=128)
                await driver.close()
                return driver

        driver = run(scenario())
        assert driver.report.errors == 0
        # 6 requests, 2 per connection before each idle close.
        assert driver.connections_opened == 3


class TestUpstreamPooling:
    def test_pool_reuse_across_sequential_misses(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
            ) as cluster:
                driver = cluster.driver_for(0)
                for i in range(6):  # distinct URLs: all origin fetches
                    await driver.fetch(f"http://pool.com/d{i}", size=128)
                await driver.close()
                return cluster.proxies[0]._pool.stats

        stats = run(scenario())
        # First miss opens the origin connection; the rest ride it.
        assert stats.created == 1
        assert stats.reused == 5

    def test_pool_disabled_opens_per_fetch(self):
        async def scenario():
            config = replace(BASE_CONFIG, pool_size=0)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                driver = cluster.driver_for(0)
                for i in range(4):
                    await driver.fetch(f"http://np.com/d{i}", size=128)
                await driver.close()
                proxy = cluster.proxies[0]
                return proxy._pool.stats, proxy._pool.total_idle, proxy.stats

        pool_stats, idle, stats = run(scenario())
        # Every acquire opens, every release closes, nothing parks.
        assert pool_stats.created == 4
        assert pool_stats.reused == 0
        assert idle == 0
        assert stats.origin_fetches == 4

    def test_stale_pooled_connection_is_retried(self):
        async def scenario():
            config = replace(BASE_CONFIG, pool_idle_timeout=30.0)
            async with ProxyCluster(
                num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
            ) as cluster:
                driver = cluster.driver_for(0)
                await driver.fetch("http://st.com/d0", size=128)
                # Kill the pooled origin connection behind the pool's
                # back: the next fetch must fall back to a fresh socket.
                proxy = cluster.proxies[0]
                for clients in proxy._pool._idle.values():
                    for client in clients:
                        client._transport.abort()
                await asyncio.sleep(0.05)
                body = await driver.fetch("http://st.com/d1", size=128)
                await driver.close()
                return body

        body = run(scenario())
        assert body == synth_body("http://st.com/d1", 128)


class TestCacheBehaviourEquivalence:
    def test_pooled_matches_unpooled_cache_behaviour(self):
        """Upstream pooling must be bit-identical in cache terms: same
        hits, same remote hits, same ICP message counts as
        ``pool_size=0`` (one upstream connection per fetch)."""

        urls = [f"http://eq.com/d{i}" for i in range(30)]

        async def scenario(pool_size: int):
            base = replace(BASE_CONFIG, pool_size=pool_size)
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=base,
            ) as cluster:
                p0 = cluster.proxies[0]
                d0 = ClientDriver(p0.config.host, p0.http_port)
                # Phase 1: populate proxy 0.
                for url in urls:
                    await d0.fetch(url, size=512)
                await d0.close()
                await asyncio.sleep(0.2)  # let DIRUPDATEs land
                # Phase 2: the same URLs via proxy 1 -> remote hits.
                p1 = cluster.proxies[1]
                d1 = ClientDriver(p1.config.host, p1.http_port)
                sources = []
                for url in urls:
                    await d1.fetch(url, size=512)
                await d1.close()
                sources.append(dict(d1.report.cache_sources))
                return (
                    [
                        (
                            s.http_requests,
                            s.local_hits,
                            s.remote_hits,
                            s.icp_queries_sent,
                            s.icp_replies_sent,
                        )
                        for s in (p.stats for p in cluster.proxies)
                    ],
                    sources,
                )

        unpooled = run(scenario(pool_size=0))
        pooled = run(scenario(pool_size=BASE_CONFIG.pool_size))
        assert pooled == unpooled
