"""Finished spans written as records, read back through the real scrapes.

A local hit, the holder's ``icp.query`` and ``peer.serve`` and the
summary-traffic spans are written finished by ``SpanRing.record``.  These
tests read them back the way operators do: through ``GET /trace``,
``GET /metrics?format=json`` and the cluster aggregator, and through the
interleaving sanitizer's per-request attribution.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace

import pytest

from repro.obs import spans as spans_module
from repro.obs.cluster import render_trace
from repro.obs.spans import TRACE_HEADER, format_id
from repro.proxy import ProxyCluster, ProxyMode
from repro.proxy.origin import OriginServer
from repro.proxy.server import SummaryCacheProxy
from repro.proxy.http import open_http
from repro.sanitizer import Sanitizer
from repro.summaries import ThresholdUpdatePolicy
from tests.proxy.test_request_budget import (
    BASE_CONFIG,
    CONTEXT,
    _get,
    _wait_until_advertised,
)

TRACE = CONTEXT.split("-")[0]


@pytest.fixture
def dicts_built(monkeypatch):
    """Count span dicts built for the test's duration."""
    built = []
    as_dict = spans_module.Span.as_dict

    def counting_as_dict(self):
        built.append(1)
        return as_dict(self)

    monkeypatch.setattr(spans_module.Span, "as_dict", counting_as_dict)
    return built


def test_scrapes_build_only_the_spans_they_return(dicts_built):
    async def scenario():
        async with ProxyCluster(
            num_proxies=1, mode=ProxyMode.NO_ICP, base_config=BASE_CONFIG
        ) as cluster:
            proxy = cluster.proxies[0]
            client = await open_http(proxy.config.host, proxy.http_port)
            await _get(client, "http://scrape.com/doc")
            # Overflow the ring with hits, one of them in a known trace.
            for i in range(proxy.spans.capacity + 10):
                headers = {TRACE_HEADER: CONTEXT} if i == 100 else {}
                await _get(client, "http://scrape.com/doc", headers)
            expected_recent = proxy.spans.as_dicts()[-64:]
            expected_trace = [
                d for d in proxy.spans.as_dicts() if d["trace_id"] == TRACE
            ]
            dicts_built.clear()
            metrics = json.loads(
                (await _get(client, "/metrics?format=json")).body
            )
            on_metrics = len(dicts_built)
            dicts_built.clear()
            traced = json.loads(
                (await _get(client, f"/trace?trace={TRACE}")).body
            )
            on_trace = len(dicts_built)
            bad = json.loads(
                (await _get(client, "/trace?trace=0xcafeca")).body
            )
            client.close()
            return (
                metrics, traced, bad, expected_recent, expected_trace,
                on_metrics, on_trace,
            )

    (
        metrics, traced, bad, expected_recent, expected_trace,
        on_metrics, on_trace,
    ) = asyncio.run(scenario())
    assert metrics["spans"] == expected_recent
    assert metrics["trace_ring_dropped"] > 0
    assert on_metrics <= 64
    assert len(expected_trace) == 1
    assert traced["spans"] == expected_trace
    assert on_trace == 1
    assert bad["spans"] == []


def test_remote_hit_reassembles_from_two_real_rings():
    url = "http://records.com/shared"

    async def scenario():
        async with ProxyCluster(
            num_proxies=2,
            mode=ProxyMode.SC_ICP,
            base_config=replace(
                BASE_CONFIG, update_policy=ThresholdUpdatePolicy(0.0)
            ),
        ) as cluster:
            requester, holder = cluster.proxies
            client = await open_http(holder.config.host, holder.http_port)
            assert (await _get(client, url)).status == 200
            client.close()
            await _wait_until_advertised(requester, holder, url)
            client = await open_http(
                requester.config.host, requester.http_port
            )
            response = await _get(
                client, url, {TRACE_HEADER: CONTEXT}
            )
            client.close()
            return response, await cluster.snapshot()

    response, snapshot = asyncio.run(scenario())
    assert response.header("x-cache") == "REMOTE-HIT"
    spans = snapshot.trace(TRACE)
    by_name = {span["name"]: span for span in spans}
    assert sorted(by_name) == ["http.request", "icp.query", "peer.serve"]
    root = by_name["http.request"]
    assert root["proxy"] == "proxy0"
    assert root["parent_id"] == "00000001"
    assert response.header(TRACE_HEADER) == f"{TRACE}-{root['span_id']}"
    for name in ("icp.query", "peer.serve"):
        span = by_name[name]
        assert span["proxy"] == "proxy1"
        assert span["parent_id"] == root["span_id"]
        assert span["status"] == "ok"
        assert span["duration"] >= 0.0
        assert span["attributes"]["hit"] is True
    assert snapshot.as_dict()["cross_proxy_traces"] >= 1
    tree = render_trace(spans).splitlines()
    assert tree[1].strip().startswith("http.request [proxy0]")
    assert {line.split()[0] for line in tree[2:]} == {
        "icp.query",
        "peer.serve",
    }


class _RecordingSanitizer(Sanitizer):
    def __init__(self) -> None:
        super().__init__()
        self.scopes = []

    def begin_request(self, trace: str = "") -> None:
        self.scopes.append(trace)
        super().begin_request(trace)


def test_local_hit_keeps_its_sanitizer_attribution():
    sanitizer = _RecordingSanitizer()
    url = "http://records.com/attributed"

    async def scenario():
        origin = OriginServer()
        await origin.start()
        proxy = SummaryCacheProxy(
            replace(BASE_CONFIG, name="proxy0"),
            origin.address,
            sanitizer=sanitizer,
        )
        await proxy.start()
        try:
            client = await open_http(proxy.config.host, proxy.http_port)
            miss = await _get(client, url)
            hit = await _get(client, url, {TRACE_HEADER: CONTEXT})
            client.close()
            return miss, hit, proxy.spans.spans(name="http.request")
        finally:
            await proxy.stop()
            await origin.stop()

    miss, hit, roots = asyncio.run(scenario())
    assert miss.header("x-cache") == "MISS"
    assert hit.header("x-cache") == "HIT"
    fresh = miss.header(TRACE_HEADER).split("-")[0]
    assert hit.header(TRACE_HEADER).split("-")[0] == TRACE
    # One scope per request, each named by the trace its root joined.
    assert sanitizer.scopes == [fresh, TRACE]
    assert [format_id(root.trace_id) for root in roots] == [fresh, TRACE]
    assert sanitizer.violations == []
