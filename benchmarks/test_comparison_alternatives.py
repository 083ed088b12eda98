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

from repro import experiments
from repro.analysis.tables import format_table

from benchmarks._shared import SCALE, write_result


def test_comparison_alternatives(benchmark):
    result = benchmark.pedantic(
        experiments.alternatives,
        args=("ucb",),
        kwargs={"scale": SCALE},
        rounds=1,
        iterations=1,
    )
    icp, carp, dserver, load, bloom = result

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

    headers, rows = experiments.alternative_rows(result)
    write_result(
        "comparison_alternatives",
        format_table(
            headers,
            rows,
            title=(
                "Comparison: summary cache vs alternative protocols "
                f"(ucb, {icp.num_proxies} proxies)"
            ),
        ),
    )
