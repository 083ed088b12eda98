"""Section VII analogue: the asyncio prototype on real localhost
sockets, measured in all three modes (the live-measurement counterpart
of Tables II/IV/V) and, for SC-ICP, across all three summary
representations (the live counterpart of the Section V comparison)."""

from __future__ import annotations

import functools

import pytest

from repro import experiments
from repro.analysis.tables import format_table
from repro.proxy import ProxyMode

from benchmarks._shared import write_result

REPRESENTATIONS = ("bloom", "exact-directory", "server-name")


@functools.lru_cache(maxsize=None)
def prototype():
    """Every live run, made once per benchmark session."""
    return experiments.prototype()


def test_prototype_cluster(benchmark):
    runs = benchmark.pedantic(prototype, rounds=1, iterations=1)
    outcomes = {mode: runs[mode, "bloom"] for mode in ProxyMode}

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

    headers, rows = experiments.prototype_rows(
        {mode.value: result for mode, result in outcomes.items()}
    )
    write_result(
        "prototype_cluster",
        format_table(
            headers,
            rows,
            title=(
                "Section VII: asyncio prototype, 4 proxies on localhost "
                f"({experiments.PROTOTYPE_REQUESTS} requests)"
            ),
        ),
    )


@pytest.mark.parametrize("kind", REPRESENTATIONS)
def test_prototype_cluster_representation(benchmark, kind):
    """SC-ICP with each Section V summary representation: every one
    must find remote hits over real sockets, with no rejected deltas."""
    runs = benchmark.pedantic(prototype, rounds=1, iterations=1)
    result = runs[ProxyMode.SC_ICP, kind]

    assert sum(s.remote_hits for s in result.proxy_stats) > 0
    assert sum(s.dirupdates_sent for s in result.proxy_stats) > 0
    assert sum(s.dirupdate_rejects for s in result.proxy_stats) == 0

    headers, rows = experiments.prototype_rows({f"sc-icp/{kind}": result})
    write_result(
        f"prototype_cluster_{kind}",
        format_table(
            headers,
            rows,
            title=(
                f"Section VII: SC-ICP with {kind} summaries, 4 proxies "
                f"on localhost ({experiments.PROTOTYPE_REQUESTS} requests)"
            ),
        ),
    )
