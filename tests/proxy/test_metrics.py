"""Integration tests: the live ``/metrics`` endpoint on a proxy cluster."""

from __future__ import annotations

import asyncio
import json

from repro.summaries import SummaryConfig
from repro.obs.export import parse_prometheus
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.client import ClientDriver
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace


def run(coro):
    return asyncio.run(coro)


def mini_trace(n: int = 300, clients: int = 8, docs: int = 100):
    return generate_trace(
        SyntheticTraceConfig(
            name="metrics-test",
            num_requests=n,
            num_clients=clients,
            num_documents=docs,
            mean_size=1024,
            max_size=32 * 1024,
            mod_probability=0.0,
            seed=21,
        )
    )


BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)


async def _replay_and_scrape():
    async with ProxyCluster(
        num_proxies=3,
        mode=ProxyMode.SC_ICP,
        cache_capacity=512 * 1024,
        base_config=BASE_CONFIG,
    ) as cluster:
        await cluster.replay(mini_trace())
        scrapes = []
        for proxy in cluster.proxies:
            driver = ClientDriver(proxy.config.host, proxy.http_port)
            text = (await driver.fetch("/metrics")).decode()
            doc = json.loads(
                (await driver.fetch("/metrics?format=json")).decode()
            )
            scrapes.append((proxy, parse_prometheus(text), doc))
        return scrapes


class TestMetricsEndpoint:
    def test_scrape_matches_proxy_and_cache_stats(self):
        scrapes = run(_replay_and_scrape())
        saw_queries = saw_updates = 0
        for proxy, parsed, _doc in scrapes:
            stats = proxy.stats
            # The ProxyStats counters and the registry increment at the
            # same sites, so a scrape must agree exactly.  The two
            # /metrics fetches themselves are client requests served
            # after the counter was read, so allow their off-by-N.
            assert (
                parsed["proxy_http_requests_total"][""]
                <= stats.http_requests
            )
            assert parsed["proxy_local_hits_total"][""] <= stats.local_hits
            assert (
                parsed["proxy_remote_hits_total"][""] == stats.remote_hits
            )
            assert (
                parsed["proxy_icp_queries_sent_total"][""]
                == stats.icp_queries_sent
            )
            assert (
                parsed["proxy_icp_replies_received_total"][""]
                == stats.icp_replies_received
            )
            # DIRUPDATE counters carry the summary representation label.
            rep = 'representation="%s"' % proxy.config.summary.kind
            assert (
                parsed["proxy_dirupdates_sent_total"][rep]
                == stats.dirupdates_sent
            )
            assert (
                parsed["proxy_dirupdates_received_total"][rep]
                == stats.dirupdates_received
            )
            assert (
                parsed["proxy_icp_false_hits_total"][""]
                == stats.false_query_rounds
            )
            # Scrape-time gauges read CacheStats live: exact agreement.
            cache_stats = proxy.cache.stats
            assert parsed["proxy_cache_hits"][""] == cache_stats.hits
            assert (
                parsed["proxy_cache_requests"][""] == cache_stats.requests
            )
            assert (
                parsed["proxy_cache_evictions"][""] == cache_stats.evictions
            )
            saw_queries += stats.icp_queries_sent
            saw_updates += stats.dirupdates_sent
        # The replay must actually have exercised the SC-ICP paths,
        # otherwise the equalities above are vacuous.
        assert saw_queries > 0
        assert saw_updates > 0

    def test_json_variant_carries_identity_and_spans(self):
        scrapes = run(_replay_and_scrape())
        for proxy, _parsed, doc in scrapes:
            assert doc["name"] == proxy.config.name
            assert doc["mode"] == "sc-icp"
            names = {record["name"] for record in doc["metrics"]}
            assert "proxy_http_requests_total" in names
            assert isinstance(doc["spans"], list)
            assert doc["spans"], "replay should leave spans in the ring"
            assert doc["trace_ring_dropped"] == proxy.spans.dropped
            span_names = {span["name"] for span in doc["spans"]}
            assert span_names & {
                "http.request",
                "icp.query",
                "dirupdate.drain",
                "dirupdate.apply",
            }

    def test_span_ring_correlates_one_lifecycle(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=BASE_CONFIG,
            ) as cluster:
                await cluster.replay(mini_trace(n=120))
                proxy = cluster.proxies[0]
                roots = proxy.spans.spans(name="http.request")
                assert roots
                # Pick a root whose request went down the miss path: its
                # phases must be on the root, not in child spans.
                root = next(
                    r for r in roots if r.attributes["source"] != "HIT"
                )
                lifecycle = proxy.spans.trace(root.trace_id)
                # One span per request on this ring; the root's parent
                # is the client driver's context, outside the ring.
                assert lifecycle == [root]
                assert root.duration is not None
                assert root.status == "ok"
                attrs = root.attributes
                assert attrs["outcome"] in (
                    "remote_hit",
                    "false_hit",
                    "fetch_failed",
                    "no_candidates",
                )
                assert attrs["candidates"] >= 0
                if attrs["outcome"] == "remote_hit":
                    assert attrs["peer_fetch"] == "ok"
                else:
                    assert attrs["origin_fetch"] == "ok"
                    assert attrs["origin_fetch_s"] > 0.0
                if attrs["candidates"]:
                    assert attrs["icp_round_s"] > 0.0

        run(scenario())
