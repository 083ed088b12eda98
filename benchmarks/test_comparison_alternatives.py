"""Comparison: summary cache vs the alternative protocols the paper
discusses (Sections I and VIII related work).

- **ICP**: per-miss multicast queries (the paper's main baseline).
- **CARP**: hash-partitioned URL space -- no duplicates and no queries,
  but most requests route to a remote owner ("not appropriate for
  wide-area cache sharing").
- **Directory server**: exact central directory -- no false hits, but
  "the central server can easily become a bottleneck."
- **Summary cache (bloom-16)**: the paper's proposal.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.sharing.carp import simulate_carp
from repro.sharing.directory_server import simulate_directory_server
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_summary_sharing,
)
from repro.traces.stats import compute_stats, mean_cacheable_size
from repro.traces.workloads import make_workload

from benchmarks._shared import SCALE, SWEEP_THRESHOLD, write_result


def test_comparison_alternatives(benchmark):
    trace, groups = make_workload("ucb", scale=SCALE)
    stats = compute_stats(trace)
    capacity = max(1, int(stats.infinite_cache_bytes * 0.10 / groups))
    doc_size = mean_cacheable_size(trace)

    def sweep():
        icp = simulate_icp(trace, groups, capacity)
        carp = simulate_carp(trace, groups, capacity)
        dserver, load = simulate_directory_server(
            trace, groups, capacity
        )
        bloom = simulate_summary_sharing(
            trace,
            groups,
            capacity,
            SummarySharingConfig(
                summary=SummaryConfig(kind="bloom", load_factor=16),
                update_policy=ThresholdUpdatePolicy(SWEEP_THRESHOLD),
                expected_doc_size=doc_size,
            ),
        )
        return icp, carp, dserver, load, bloom

    icp, carp, dserver, load, bloom = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    # The qualitative claims:
    # 1. All schemes find comparable aggregate hit ratios.
    ratios = [
        icp.total_hit_ratio,
        carp.hit_ratio,
        dserver.total_hit_ratio,
        bloom.total_hit_ratio,
    ]
    assert max(ratios) - min(ratios) < 0.10
    # 2. CARP routes almost everything over the wide area; summary
    #    cache serves its local hits locally.
    assert carp.remote_routing_ratio > 0.5
    local_service = bloom.local_hits / bloom.requests
    assert 1 - carp.remote_routing_ratio < local_service
    # 3. The directory server concentrates load centrally.
    assert load.per_request(dserver.requests) > 1.0
    # 4. Summary cache beats ICP on interproxy messages.
    assert bloom.messages_per_request < icp.messages_per_request

    rows = [
        (
            "icp",
            f"{icp.total_hit_ratio:.3f}",
            f"{icp.messages_per_request:.3f}",
            "0%",
            "-",
        ),
        (
            "carp",
            f"{carp.hit_ratio:.3f}",
            "0.000",
            f"{carp.remote_routing_ratio:.0%}",
            "-",
        ),
        (
            "directory-server",
            f"{dserver.total_hit_ratio:.3f}",
            f"{dserver.messages_per_request:.3f}",
            "0%",
            f"{load.per_request(dserver.requests):.2f}",
        ),
        (
            "summary-cache (bloom-16)",
            f"{bloom.total_hit_ratio:.3f}",
            f"{bloom.messages_per_request:.3f}",
            "0%",
            "-",
        ),
    ]
    write_result(
        "comparison_alternatives",
        format_table(
            (
                "protocol",
                "hit-ratio",
                "interproxy msgs/req",
                "wide-area routed",
                "central-server msgs/req",
            ),
            rows,
            title=(
                "Comparison: summary cache vs alternative protocols "
                f"(ucb, {groups} proxies)"
            ),
        ),
    )
