"""Regression tests for cancellation unwinding through the data plane.

Under asyncio every ``await`` is a cancellation point, and
``except Exception`` does not catch ``CancelledError``.  SC008 flagged
(and this PR fixed) two leak classes on that path: spans that never
end and pooled connections that never return to the pool.  These tests
cancel a task mid-fetch and assert both resources are accounted for.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

from repro.summaries import SummaryConfig
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import HttpRequest


def run(coro):
    return asyncio.run(coro)


BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)


class TestCancelledFetch:
    def test_pooled_connection_released_on_cancel(self):
        # Cancel a fetch while the exchange awaits the (slow) origin:
        # the connection must be discarded back through the pool, not
        # stranded between acquire and release.
        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                base_config=BASE_CONFIG,
                origin_delay=5.0,
            ) as cluster:
                proxy = cluster.proxies[0]
                task = asyncio.create_task(
                    proxy._upstream_get(None, "http://slow.com/d", {}, "")
                )
                # Let the task acquire a connection and start awaiting
                # the origin's (delayed) response.
                for _ in range(20):
                    await asyncio.sleep(0)
                assert proxy._pool.stats.created == 1
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                return proxy._pool.stats, proxy._pool.total_idle

        stats, idle = run(scenario())
        # Every created connection is either idle or discarded -- a
        # leak would leave created > discarded + idle.
        assert stats.created == 1
        assert stats.discarded == 1
        assert idle == 0

    def test_span_ended_on_cancelled_origin_fetch(self):
        # A client request cancelled while its miss awaits the origin:
        # the root span is opened before that await, and the
        # with-protocol must still end it; the pooled origin connection
        # must go back through the pool.
        async def scenario():
            async with ProxyCluster(
                num_proxies=1,
                mode=ProxyMode.NO_ICP,
                base_config=replace(BASE_CONFIG, trace_capacity=64),
                origin_delay=5.0,
            ) as cluster:
                proxy = cluster.proxies[0]
                request = HttpRequest(
                    "http://slow.com/d", {"x-size": "128"}
                )
                task = asyncio.create_task(proxy._serve_client(request))
                for _ in range(20):
                    await asyncio.sleep(0)
                assert proxy._pool.stats.created == 1
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                return (
                    proxy.spans.spans(),
                    proxy._pool.stats,
                    proxy._pool.total_idle,
                )

        spans, stats, idle = run(scenario())
        assert [span.name for span in spans] == ["http.request"]
        assert spans[0].duration is not None
        assert spans[0].status == "cancelled"
        assert stats.discarded == 1
        assert idle == 0
