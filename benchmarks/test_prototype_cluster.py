"""Section VII analogue: the asyncio prototype on real localhost
sockets, measured in all three modes (the live-measurement counterpart
of Tables II/IV/V) and, for SC-ICP, across all three summary
representations (the live counterpart of the Section V comparison)."""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.tables import format_table
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.summaries import SummaryConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

from benchmarks._shared import write_result

NUM_REQUESTS = 2000

REPRESENTATIONS = ("bloom", "exact-directory", "server-name")


def make_trace():
    return generate_trace(
        SyntheticTraceConfig(
            name="prototype-bench",
            num_requests=NUM_REQUESTS,
            num_clients=32,
            num_documents=700,
            mean_size=2048,
            max_size=64 * 1024,
            mod_probability=0.0,
            seed=55,
        )
    )


def config_for(kind: str) -> ProxyConfig:
    return ProxyConfig(
        summary=SummaryConfig(kind=kind, load_factor=8),
        expected_doc_size=2048,
    )


async def run_all_modes():
    trace = make_trace()
    config = config_for("bloom")
    outcomes = {}
    for mode in (ProxyMode.NO_ICP, ProxyMode.ICP, ProxyMode.SC_ICP):
        async with ProxyCluster(
            num_proxies=4,
            mode=mode,
            cache_capacity=2 * 2**20,
            origin_delay=0.001,
            base_config=config,
        ) as cluster:
            result = await cluster.replay(trace, clients_per_proxy=4)
        outcomes[mode] = result
    return outcomes


async def run_sc_icp(kind: str):
    trace = make_trace()
    async with ProxyCluster(
        num_proxies=4,
        mode=ProxyMode.SC_ICP,
        cache_capacity=2 * 2**20,
        origin_delay=0.001,
        base_config=config_for(kind),
    ) as cluster:
        return await cluster.replay(trace, clients_per_proxy=4)


def result_row(label, result):
    return (
        label,
        f"{result.total_hit_ratio:.3f}",
        sum(s.remote_hits for s in result.proxy_stats),
        result.udp_total,
        sum(s.icp_queries_sent for s in result.proxy_stats),
        sum(s.dirupdates_sent for s in result.proxy_stats),
        sum(s.false_query_rounds for s in result.proxy_stats),
        f"{result.client_report.mean_latency * 1000:.2f} ms",
    )


TABLE_HEADER = (
    "mode",
    "hit-ratio",
    "remote-hits",
    "udp-sent",
    "queries",
    "dir-updates",
    "false-rounds",
    "latency",
)


def test_prototype_cluster(benchmark):
    outcomes = benchmark.pedantic(
        lambda: asyncio.run(run_all_modes()), rounds=1, iterations=1
    )

    no_icp = outcomes[ProxyMode.NO_ICP]
    icp = outcomes[ProxyMode.ICP]
    sc = outcomes[ProxyMode.SC_ICP]

    # Cooperation finds remote hits over real sockets.
    assert sum(s.remote_hits for s in icp.proxy_stats) > 0
    assert sum(s.remote_hits for s in sc.proxy_stats) > 0
    assert sc.total_hit_ratio > no_icp.total_hit_ratio

    # SC-ICP's per-miss query traffic collapses versus ICP.
    icp_queries = sum(s.icp_queries_sent for s in icp.proxy_stats)
    sc_queries = sum(s.icp_queries_sent for s in sc.proxy_stats)
    assert sc_queries < icp_queries / 3

    # Hit ratios stay close between ICP and SC-ICP.
    assert sc.total_hit_ratio > icp.total_hit_ratio - 0.05

    rows = [
        result_row(mode.value, result) for mode, result in outcomes.items()
    ]
    write_result(
        "prototype_cluster",
        format_table(
            TABLE_HEADER,
            rows,
            title=(
                "Section VII: asyncio prototype, 4 proxies on localhost "
                f"({NUM_REQUESTS} requests)"
            ),
        ),
    )


@pytest.mark.parametrize("kind", REPRESENTATIONS)
def test_prototype_cluster_representation(benchmark, kind):
    """SC-ICP with each Section V summary representation: every one
    must find remote hits over real sockets, with no rejected deltas."""
    result = benchmark.pedantic(
        lambda: asyncio.run(run_sc_icp(kind)), rounds=1, iterations=1
    )

    assert sum(s.remote_hits for s in result.proxy_stats) > 0
    assert sum(s.dirupdates_sent for s in result.proxy_stats) > 0
    assert sum(s.dirupdate_rejects for s in result.proxy_stats) == 0

    write_result(
        f"prototype_cluster_{kind}",
        format_table(
            TABLE_HEADER,
            [result_row(f"sc-icp/{kind}", result)],
            title=(
                f"Section VII: SC-ICP with {kind} summaries, 4 proxies "
                f"on localhost ({NUM_REQUESTS} requests)"
            ),
        ),
    )
