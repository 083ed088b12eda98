"""The hit path's event-loop budget, in counts rather than time.

A local hit on a keep-alive connection must cost the event loop no task
and no timer of its own: the idle timeout is one deadline per
connection, not an ``asyncio.wait_for`` per request (which made one
task and one timer per request on Python 3.10/3.11, and one timer on
3.12).  Counts resolve what timing cannot, so this gate runs in tier 1.
"""

from __future__ import annotations

import asyncio

from repro.summaries import SummaryConfig
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import read_response, write_request

BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)

URLS = [f"http://budget.com/d{i}" for i in range(10)]
HITS = 300
#: A constant per connection (the idle reaper may re-arm once), never
#: one per request.
PER_CONNECTION = 2


async def _get(reader, writer, url):
    write_request(writer, url, {"X-Size": "1024"}, keep_alive=True)
    await writer.drain()
    return await read_response(reader)


def test_local_hits_make_no_task_and_no_timer():
    async def scenario():
        async with ProxyCluster(
            num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
        ) as cluster:
            proxy = cluster.proxies[0]
            reader, writer = await asyncio.open_connection(
                proxy.config.host, proxy.http_port
            )
            for url in URLS:  # warm: every later request is a local hit
                assert (await _get(reader, writer, url)).status == 200
            hits_before = proxy.stats.local_hits

            loop = asyncio.get_running_loop()
            counts = {"tasks": 0, "timers": 0}
            call_at = loop.call_at

            def counting_call_at(when, callback, *args, **kwargs):
                counts["timers"] += 1
                return call_at(when, callback, *args, **kwargs)

            def counting_factory(loop, coro, **kwargs):
                counts["tasks"] += 1
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.call_at = counting_call_at  # call_later goes through it
            loop.set_task_factory(counting_factory)
            try:
                for i in range(HITS):
                    response = await _get(reader, writer, URLS[i % len(URLS)])
                    assert response.header("x-cache") == "HIT"
            finally:
                loop.set_task_factory(None)
                del loop.call_at
            writer.close()
            return counts, proxy.stats.local_hits - hits_before

    counts, hits = asyncio.run(scenario())
    assert hits == HITS
    assert counts["tasks"] <= PER_CONNECTION, counts
    assert counts["timers"] <= PER_CONNECTION, counts
