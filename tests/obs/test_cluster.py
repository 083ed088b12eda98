"""Cluster aggregator tests: fusion, trace reassembly, attribution."""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional

import pytest

from repro.summaries import SummaryConfig
from repro.errors import ProtocolError
from repro.obs.cluster import (
    ClusterSnapshot,
    ProxySnapshot,
    render_cluster,
    render_trace,
    scrape_cluster,
)
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace


def run(coro):
    return asyncio.run(coro)


def span(
    trace_id: str,
    span_id: str,
    name: str,
    start: float,
    parent_id: Optional[str] = None,
    **attributes: object,
) -> Dict[str, Any]:
    return {
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": start,
        "duration": 0.001,
        "status": "ok",
        "attributes": dict(attributes),
        "events": [],
    }


def make_snapshot() -> ClusterSnapshot:
    a = ProxySnapshot(
        name="proxy0",
        host="127.0.0.1",
        port=1,
        metrics={
            "proxy_http_requests_total": {"": 10.0},
            "proxy_icp_false_hits_total": {"": 1.0},
            "proxy_remote_hits_total": {"": 3.0},
            "proxy_remote_fetch_failures_total": {"": 0.0},
            "proxy_summary_predicted_fp_rate": {"": 0.05},
            "proxy_dirupdates_sent_total": {'representation="bloom"': 4.0},
        },
        spans=[
            span(
                "aaaa0001",
                "00000001",
                "http.request",
                1.0,
                url="/d",
                source="REMOTE-HIT",
                outcome="remote_hit",
                candidates=1,
                peer="proxy1",
                icp_round_s=0.0004,
                peer_fetch="ok",
                peer_fetch_s=0.0012,
            ),
        ],
        summary={
            "representation": "bloom",
            "num_bits": 8192,
            "num_hashes": 4,
            "load_factor": 8,
        },
    )
    b = ProxySnapshot(
        name="proxy1",
        host="127.0.0.1",
        port=2,
        metrics={
            "proxy_http_requests_total": {"": 4.0},
            "proxy_summary_predicted_fp_rate": {"": 0.02},
        },
        spans=[
            span(
                "aaaa0001",
                "00000003",
                "icp.query",
                1.25,
                parent_id="00000001",
                hit=True,
            ),
            span(
                "aaaa0001",
                "00000006",
                "peer.serve",
                1.5,
                parent_id="00000001",
                hit=True,
            ),
            span("bbbb0001", "00000004", "http.request", 3.0),
        ],
    )
    return ClusterSnapshot(proxies={"proxy0": a, "proxy1": b})


class TestClusterSnapshot:
    def test_totals_sum_proxies_and_labels(self):
        snapshot = make_snapshot()
        assert snapshot.total("proxy_http_requests_total") == 14.0
        assert snapshot.total("proxy_dirupdates_sent_total") == 4.0
        assert snapshot.total("never_emitted_total") == 0.0

    def test_spans_are_annotated_and_time_ordered(self):
        spans = make_snapshot().spans()
        assert [s["proxy"] for s in spans] == [
            "proxy0",
            "proxy1",
            "proxy1",
            "proxy1",
        ]
        assert [s["start"] for s in spans] == [1.0, 1.25, 1.5, 3.0]

    def test_traces_reassemble_across_proxies(self):
        snapshot = make_snapshot()
        traces = snapshot.traces()
        assert set(traces) == {"aaaa0001", "bbbb0001"}
        cross = traces["aaaa0001"]
        assert {s["proxy"] for s in cross} == {"proxy0", "proxy1"}
        assert [s["name"] for s in cross] == [
            "http.request",
            "icp.query",
            "peer.serve",
        ]
        # Lookup is case-insensitive on the hex id.
        assert snapshot.trace("AAAA0001") == cross
        assert snapshot.trace("ffffffff") == []

    def test_false_hit_attribution_math(self):
        by_proxy = {
            a.proxy: a for a in make_snapshot().false_hit_attribution()
        }
        attr = by_proxy["proxy0"]
        assert attr.rounds == 4
        assert attr.measured_ratio == pytest.approx(0.25)
        assert attr.predicted_fp_rate == pytest.approx(0.05)
        assert attr.representation == "bloom"
        # proxy1 resolved no hit-promising rounds: ratio defined as 0.
        assert by_proxy["proxy1"].measured_ratio == 0.0
        assert by_proxy["proxy1"].representation == "unknown"

    def test_as_dict_carries_derived_views(self):
        doc = make_snapshot().as_dict()
        assert doc["cross_proxy_traces"] == 1
        assert doc["traces"] == {"aaaa0001": 3, "bbbb0001": 1}
        assert doc["proxies"]["proxy0"]["summary"]["num_bits"] == 8192
        assert doc["proxies"]["proxy1"]["summary"] == {}
        assert doc["totals"]["proxy_http_requests_total"] == 14.0
        assert doc["proxies"]["proxy0"]["spans"]
        assert doc["false_hit_attribution"][0]["proxy"] == "proxy0"


class TestRendering:
    def test_render_cluster_lists_every_proxy(self):
        text = render_cluster(make_snapshot())
        assert "proxy0" in text
        assert "proxy1" in text
        assert "traces: 2 total, 1 spanning more than one proxy" in text

    def test_render_trace_tree(self):
        snapshot = make_snapshot()
        text = render_trace(snapshot.trace("aaaa0001"))
        lines = text.splitlines()
        assert lines[0] == "trace aaaa0001"
        # One span per request on the requester: the children are the
        # holder's, hung directly under the root.
        assert lines[1].startswith("  http.request [proxy0]")
        assert lines[1].endswith(
            " url=/d source=REMOTE-HIT outcome=remote_hit candidates=1"
            " peer=proxy1 icp_round=0.40ms peer_fetch=1.20ms(ok)"
        )
        assert lines[2].startswith("    icp.query [proxy1]")
        assert lines[3].startswith("    peer.serve [proxy1]")
        assert len(lines) == 4

    def test_render_trace_orphans_surface_at_top_level(self):
        orphan = span(
            "cccc0001", "00000009", "peer.fetch", 1.0, parent_id="deadbeef"
        )
        text = render_trace([{**orphan, "proxy": "proxy9"}])
        assert "peer.fetch [proxy9]" in text
        assert render_trace([]) == "(no spans)"


class TestScrape:
    def test_scrape_cluster_fuses_live_proxies(self):
        trace = generate_trace(
            SyntheticTraceConfig(
                name="obs-cluster-test",
                num_requests=120,
                num_clients=4,
                num_documents=40,
                mean_size=1024,
                max_size=16 * 1024,
                mod_probability=0.0,
                seed=7,
            )
        )

        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=ProxyConfig(
                    summary=SummaryConfig(kind="bloom", load_factor=8),
                    expected_doc_size=1024,
                ),
            ) as cluster:
                await cluster.replay(trace, assignment="round-robin")
                snapshot = await cluster.snapshot()
                duplicate = cluster.targets() + cluster.targets()[:1]
                with pytest.raises(ProtocolError):
                    await scrape_cluster(duplicate)
                return snapshot

        snapshot = run(scenario())
        assert set(snapshot.proxies) == {"proxy0", "proxy1"}
        assert snapshot.total("proxy_http_requests_total") == 120.0
        for snap in snapshot.proxies.values():
            assert snap.trace_enabled
            assert snap.trace_ring_capacity == 2048
            assert snap.spans
        assert snapshot.false_hit_attribution()[0].representation == "bloom"
        # The scrape itself must not have written spans into any ring.
        assert all(
            s["name"] != "http.request"
            or s["attributes"]["url"] not in ("/metrics", "/trace")
            for s in snapshot.spans()
        )
