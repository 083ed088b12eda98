"""The scale law: the ICP-to-summary-cache message factor vs trace size.

EXPERIMENTS.md derives that update messages per request shrink as
documents-per-cache grow (update msgs/req = (n-1) * miss / (threshold *
docs_per_cache)), so the headline Fig. 7 factor climbs toward the
paper's 25-60x as the workload approaches real trace sizes.  This
benchmark measures the factor at three workload scales and checks it
grows monotonically, bridging the laptop-scale tables to the paper's.
"""

from __future__ import annotations

from repro import experiments
from repro.analysis.tables import format_table
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_summary_sharing,
)
from repro.traces.workloads import make_workload

from benchmarks._shared import write_result

SCALES = (1.0, 2.0, 4.0)


def measure(scale: float):
    trace, groups = make_workload("dec", scale=scale)
    capacity, doc_size = experiments.cache_sizes(trace, groups)
    docs_per_cache = capacity // doc_size
    icp = simulate_icp(trace, groups, capacity)
    bloom = simulate_summary_sharing(
        trace,
        groups,
        capacity,
        SummarySharingConfig(
            summary=SummaryConfig(kind="bloom", load_factor=16),
            update_policy=ThresholdUpdatePolicy(0.01),
            expected_doc_size=doc_size,
        ),
    )
    return docs_per_cache, icp, bloom


def test_scale_law(benchmark):
    def sweep():
        return {scale: measure(scale) for scale in SCALES}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    factors = []
    for scale, (docs, icp, bloom) in results.items():
        factor = icp.messages_per_request / bloom.messages_per_request
        factors.append(factor)
        rows.append(
            (
                f"{scale:g}",
                docs,
                f"{icp.messages_per_request:.2f}",
                f"{bloom.messages_per_request:.3f}",
                f"{bloom.messages.update_messages / bloom.requests:.3f}",
                f"{factor:.1f}x",
            )
        )

    # The factor grows with documents-per-cache, and update traffic per
    # request falls.
    assert factors == sorted(factors)
    updates = [
        results[s][2].messages.update_messages / results[s][2].requests
        for s in SCALES
    ]
    assert updates == sorted(updates, reverse=True)
    # Hit ratios stay equivalent at every scale.
    for scale in SCALES:
        _docs, icp, bloom = results[scale]
        assert abs(bloom.total_hit_ratio - icp.total_hit_ratio) < 0.01

    write_result(
        "scale_law",
        format_table(
            (
                "scale",
                "docs/cache",
                "icp msgs/req",
                "bloom-16 msgs/req",
                "updates/req",
                "factor",
            ),
            rows,
            title=(
                "Scale law (dec, 16 proxies): ICP-to-summary-cache factor "
                "vs trace size -- extrapolates to the paper's 25-60x"
            ),
        ),
    )
