"""The request path's budgets, in counts rather than time.

A local hit on a keep-alive connection must cost the event loop no task
and no timer of its own: the idle timeout is one deadline per
connection, not an ``asyncio.wait_for`` per request (which made one
task and one timer per request on Python 3.10/3.11, and one timer on
3.12).  A served request must also write one span, its root, with the
miss path's phases as attributes, and write its trace context once per
header it sends.
Counts resolve what timing cannot, so these gates run in tier 1.
"""

from __future__ import annotations

import asyncio
import gc
import sys
from dataclasses import replace

import pytest

from repro.obs import spans as spans_module
from repro.obs.spans import TRACE_HEADER
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import open_http, render_request
from tests.proxy.conftest import copy_holds

BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)

#: Client-sent trace context, so the proxy's header parse is exercised.
CONTEXT = "cafecafe-00000001"

URLS = [f"http://budget.com/d{i}" for i in range(10)]
HITS = 300
#: A constant per connection (the idle reaper may re-arm once), never
#: one per request.
PER_CONNECTION = 2


async def _get(client, url, headers=None):
    client.send(
        render_request(
            url, {"X-Size": "1024", **(headers or {})}, keep_alive=True
        )
    )
    return await client.response()


@pytest.fixture
def contexts_built(monkeypatch):
    """Count ``X-SC-Trace`` values written for the test's duration.

    Context travels as a ``(trace_id, span_id)`` pair: no context object
    is built per hop, and the one header writer, ``format_context``, runs
    once per header a proxy actually sends.
    """
    built = []
    write = spans_module.format_context

    def counting_write(trace_id, span_id):
        built.append(1)
        return write(trace_id, span_id)

    monkeypatch.setattr(spans_module, "format_context", counting_write)
    return built


def test_local_hits_make_no_task_and_no_timer():
    async def scenario():
        async with ProxyCluster(
            num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
        ) as cluster:
            proxy = cluster.proxies[0]
            client = await open_http(proxy.config.host, proxy.http_port)
            for url in URLS:  # warm: every later request is a local hit
                assert (await _get(client, url)).status == 200
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
                    response = await _get(client, URLS[i % len(URLS)])
                    assert response.header("x-cache") == "HIT"
            finally:
                loop.set_task_factory(None)
                del loop.call_at
            client.close()
            return counts, proxy.stats.local_hits - hits_before

    counts, hits = asyncio.run(scenario())
    assert hits == HITS
    assert counts["tasks"] <= PER_CONNECTION, counts
    assert counts["timers"] <= PER_CONNECTION, counts


def test_local_hits_write_one_span_each_and_no_context(contexts_built):
    async def scenario():
        async with ProxyCluster(
            num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
        ) as cluster:
            proxy = cluster.proxies[0]
            client = await open_http(proxy.config.host, proxy.http_port)
            for url in URLS:  # warm: every later request is a local hit
                assert (await _get(client, url)).status == 200
            spans_before = len(proxy.spans)
            contexts_built.clear()
            for i in range(HITS):
                response = await _get(
                    client,
                    URLS[i % len(URLS)],
                    {TRACE_HEADER: CONTEXT},
                )
                assert response.header("x-cache") == "HIT"
                assert response.header(TRACE_HEADER).startswith("cafecafe-")
            client.close()
            return proxy.spans.spans()[spans_before:], len(contexts_built)

    new_spans, contexts = asyncio.run(scenario())
    assert len(new_spans) == HITS
    assert {span.name for span in new_spans} == {"http.request"}
    assert contexts == HITS  # the echo on each response


async def _wait_until_advertised(seeker, holder, url):
    """Poll until *seeker*'s copy of *holder*'s summary has *url*."""
    target = holder.address().icp_addr
    for _ in range(400):
        if copy_holds(seeker, target, url):
            return
        await asyncio.sleep(0.01)
    pytest.fail(f"{url} never appeared in the propagated summary")


def _request_spans(ring, since):
    """Spans started after index *since*, summary traffic aside."""
    return [
        span
        for span in ring.spans()[since:]
        if not span.name.startswith("dirupdate.")
    ]


def test_remote_hit_writes_one_span_on_the_requester(contexts_built):
    url = "http://budget.com/shared"

    async def scenario():
        async with ProxyCluster(
            num_proxies=2,
            mode=ProxyMode.SC_ICP,
            # Every insert is advertised at once, so the warmed
            # document reaches the requester's copy of the summary.
            base_config=replace(
                BASE_CONFIG, update_policy=ThresholdUpdatePolicy(0.0)
            ),
        ) as cluster:
            requester, holder = cluster.proxies
            client = await open_http(holder.config.host, holder.http_port)
            assert (await _get(client, url)).status == 200
            client.close()
            await _wait_until_advertised(requester, holder, url)
            before = len(requester.spans), len(holder.spans)
            contexts_built.clear()

            client = await open_http(
                requester.config.host, requester.http_port
            )
            response = await _get(
                client, url, {TRACE_HEADER: CONTEXT}
            )
            client.close()
            # The holder's icp.query is written when its reply leaves,
            # before the requester can finish; nothing is in flight.
            return (
                response,
                _request_spans(requester.spans, before[0]),
                _request_spans(holder.spans, before[1]),
                len(contexts_built),
            )

    response, on_requester, on_holder, contexts = asyncio.run(scenario())
    assert response.header("x-cache") == "REMOTE-HIT"
    (root,) = on_requester
    assert root.name == "http.request"
    assert sorted(span.name for span in on_holder) == [
        "icp.query",
        "peer.serve",
    ]
    assert {span.trace_id for span in on_requester + on_holder} == {
        0xCAFECAFE
    }
    assert {span.parent_id for span in on_holder} == {root.span_id}
    attrs = root.attributes
    assert attrs["candidates"] == 1
    assert attrs["outcome"] == "remote_hit"
    assert attrs["peer"] == "proxy1"
    assert attrs["icp_round_s"] > 0.0
    assert attrs["peer_fetch_s"] > 0.0
    assert [event["kind"] for event in root.events] == ["icp.reply"]
    assert contexts == 2  # on the fetch to the holder, and the echo


#: A ring the hits below overflow many times.
SMALL_RING = 64


def test_local_hits_build_no_span_and_leave_untracked_records(monkeypatch):
    """A hit has no ``await``, so its root is written finished: no
    ``Span`` object, no drop callback when the ring is full, and a
    record the cyclic GC stops tracking."""
    built = []
    init = spans_module.Span.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    # Every Python call the ring makes while writing a span: a drop
    # callback would show up here.
    from_ring = []

    def profile(frame, event, arg):
        caller = frame.f_back
        if (
            event == "call"
            and caller is not None
            and caller.f_code.co_filename == spans_module.__file__
            and caller.f_code.co_name in ("record", "start_span")
        ):
            from_ring.append(frame.f_code.co_name)

    async def scenario():
        async with ProxyCluster(
            num_proxies=1,
            mode=ProxyMode.NO_ICP,
            base_config=replace(BASE_CONFIG, trace_capacity=SMALL_RING),
        ) as cluster:
            proxy = cluster.proxies[0]
            client = await open_http(proxy.config.host, proxy.http_port)
            for url in URLS:  # warm: every later request is a local hit
                assert (await _get(client, url)).status == 200
            monkeypatch.setattr(spans_module.Span, "__init__", counting_init)
            sys.setprofile(profile)
            try:
                for i in range(HITS):
                    response = await _get(
                        client,
                        URLS[i % len(URLS)],
                        {TRACE_HEADER: CONTEXT},
                    )
                    assert response.header("x-cache") == "HIT"
            finally:
                sys.setprofile(None)
                monkeypatch.undo()
            client.close()
            gc.collect()
            tracked = [e for e in proxy.spans._entries if gc.is_tracked(e)]
            return proxy, tracked

    proxy, tracked = asyncio.run(scenario())
    assert built == []
    assert set(from_ring) == {"next_id"}
    assert len(proxy.spans) == SMALL_RING
    assert proxy.spans.dropped == len(URLS) + HITS - SMALL_RING
    assert (
        proxy.registry.value("trace_ring_dropped_total")
        == proxy.spans.dropped
    )
    assert tracked == []
