"""The client driver's request path: budgets, timeout, cancel, context.

``ClientDriver`` is the load generator the live benchmark measures the
proxy with, so its per-request cost is held in counts, like the
proxy's (``test_request_budget.py``): a fetch on a live connection
makes no task, arms no timer and reads no ``os.urandom``.  The timeout
is one deadline per driver; these tests pin what it must still do --
time a silent proxy out, let an outside cancel through, and leave no
timer behind.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time

import pytest

from repro.errors import ProxyError
from repro.obs.spans import TRACE_HEADER, format_context, parse_context
from repro.proxy import ClientDriver, ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import Deadline, HttpConnection
from repro.summaries import SummaryConfig

BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)

URLS = [f"http://client.com/d{i}" for i in range(10)]
FETCHES = 300
#: What a whole session may spend, independent of its length.
PER_SESSION = 2

BODY = b"stub body"
#: The context a stub proxy echoes: a trace id the driver never sent.
ECHO = format_context(0xCAFEF00D, 0x00000009)


@contextlib.asynccontextmanager
async def stub_proxy(silent_connections=0, echo=""):
    """A scripted proxy on an ephemeral port.

    The first *silent_connections* connections read one request and
    answer it only as the stub shuts down; later ones answer every request ``200`` with a fixed
    body, echoing *echo* as ``X-SC-Trace`` when given.  Yields
    ``(port, seen)``: ``seen["requests"]`` lists every request read,
    and ``seen["arrived"]`` is set when a silent connection has read
    its request.
    """
    seen = {"connections": 0, "requests": [], "arrived": asyncio.Event()}
    release = asyncio.Event()

    async def answer_on_release():
        await release.wait()
        return 200, BODY, {}

    def connection():
        seen["connections"] += 1
        silent = seen["connections"] <= silent_connections

        def serve(request):
            seen["requests"].append(request)
            if silent:
                seen["arrived"].set()
                return answer_on_release()
            headers = {"X-Cache": "HIT"}
            if echo:
                headers[TRACE_HEADER] = echo
            return 200, BODY, headers

        return HttpConnection(serve)

    loop = asyncio.get_running_loop()
    server = await loop.create_server(connection, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1], seen
    finally:
        release.set()
        server.close()
        await server.wait_closed()


def test_fetches_make_no_task_no_timer_and_no_urandom(monkeypatch):
    async def scenario():
        async with ProxyCluster(
            num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
        ) as cluster:
            proxy = cluster.proxies[0]
            driver = ClientDriver(
                proxy.config.host, proxy.http_port, timeout=30
            )
            for url in URLS:  # warm: the connection, the cache
                await driver.fetch(url, size=1024)

            loop = asyncio.get_running_loop()
            counts = {"tasks": 0, "timers": 0, "urandom": 0}
            call_at = loop.call_at
            urandom = os.urandom

            def counting_call_at(when, callback, *args, **kwargs):
                counts["timers"] += 1
                return call_at(when, callback, *args, **kwargs)

            def counting_factory(loop, coro, **kwargs):
                counts["tasks"] += 1
                return asyncio.Task(coro, loop=loop, **kwargs)

            def counting_urandom(size):
                counts["urandom"] += 1
                return urandom(size)

            loop.call_at = counting_call_at  # call_later goes through it
            loop.set_task_factory(counting_factory)
            monkeypatch.setattr(os, "urandom", counting_urandom)
            try:
                for i in range(FETCHES):
                    await driver.fetch(URLS[i % len(URLS)], size=1024)
            finally:
                monkeypatch.undo()
                loop.set_task_factory(None)
                del loop.call_at
            await driver.close()
            return counts, driver.report

    counts, report = asyncio.run(scenario())
    assert report.requests == len(URLS) + FETCHES
    assert report.errors == 0
    assert report.cache_sources["HIT"] == FETCHES
    assert counts["tasks"] <= PER_SESSION, counts
    assert counts["timers"] <= PER_SESSION, counts
    assert counts["urandom"] == 0, counts


def test_silent_proxy_times_out_and_next_fetch_reconnects():
    timeout = 0.2

    async def scenario():
        async with stub_proxy(silent_connections=1) as (port, seen):
            driver = ClientDriver("127.0.0.1", port, timeout=timeout)
            began = time.perf_counter()
            with pytest.raises(ProxyError, match="timed out"):
                await driver.fetch("http://client.com/slow")
            waited = time.perf_counter() - began
            task = asyncio.current_task()
            # The deadline's own cancel was taken back (Python 3.11+).
            cancelling = getattr(task, "cancelling", lambda: 0)()
            requests, errors = driver.report.requests, driver.report.errors
            body = await driver.fetch("http://client.com/fast")
            await driver.close()
            return waited, cancelling, (requests, errors), body, driver

    waited, cancelling, after_timeout, body, driver = asyncio.run(scenario())
    assert timeout <= waited < timeout + 1.0
    assert cancelling == 0
    assert after_timeout == (1, 1)
    assert body == BODY
    assert driver.connections_opened == 2
    assert (driver.report.requests, driver.report.errors) == (2, 1)


def test_outside_cancel_propagates_and_disarms_the_deadline():
    async def scenario():
        loop = asyncio.get_running_loop()
        armed = []
        call_at = loop.call_at

        def recording_call_at(when, callback, *args, **kwargs):
            handle = call_at(when, callback, *args, **kwargs)
            if isinstance(getattr(callback, "__self__", None), Deadline):
                armed.append(handle)
            return handle

        loop.call_at = recording_call_at
        try:
            async with stub_proxy(silent_connections=1) as (port, seen):
                driver = ClientDriver("127.0.0.1", port, timeout=30)
                fetch = asyncio.ensure_future(
                    driver.fetch("http://client.com/stuck")
                )
                await seen["arrived"].wait()
                fetch.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await fetch
                # Checked before close(), which would disarm it anyway.
                disarmed = [handle.cancelled() for handle in armed]
                await driver.close()
        finally:
            del loop.call_at
        return disarmed, driver.report

    disarmed, report = asyncio.run(scenario())
    assert disarmed == [True]  # the fetch armed one timer, now cancelled
    assert (report.requests, report.errors) == (0, 0)


def test_last_trace_is_the_echo_and_send_trace_false_sends_none():
    async def scenario():
        async with stub_proxy(echo=ECHO) as (port, seen):
            traced = ClientDriver("127.0.0.1", port)
            before = traced.last_trace
            await traced.fetch("http://client.com/traced")
            await traced.close()
            untraced = ClientDriver("127.0.0.1", port, send_trace=False)
            await untraced.fetch("http://client.com/untraced")
            await untraced.close()
        async with stub_proxy() as (port, quiet):
            unechoed = ClientDriver("127.0.0.1", port)
            await unechoed.fetch("http://client.com/unechoed")
            await unechoed.close()
        return before, traced, seen["requests"], unechoed, quiet["requests"]

    before, traced, requests, unechoed, quiet = asyncio.run(scenario())
    assert before == ""
    assert traced.last_trace == "cafef00d"
    sent = parse_context(requests[0].header(TRACE_HEADER))
    assert sent is not None and sent[0] != 0xCAFEF00D
    assert TRACE_HEADER.lower() not in requests[1].headers
    # No echo: the driver falls back to the context it sent.
    (sent_unechoed,) = quiet
    assert unechoed.last_trace == sent_unechoed.header(TRACE_HEADER)[:8]


def test_close_leaves_the_driver_usable():
    async def scenario():
        async with stub_proxy() as (port, seen):
            driver = ClientDriver("127.0.0.1", port, timeout=30)
            first = await driver.fetch("http://client.com/a")
            await driver.close()
            second = await driver.fetch("http://client.com/b")
            await driver.close()
            return first, second, driver

    first, second, driver = asyncio.run(scenario())
    assert first == second == BODY
    assert driver.connections_opened == 2
    assert (driver.report.requests, driver.report.errors) == (2, 0)
