"""Ablation: cache replacement policy under simple sharing.

The paper's results "are obtained under the LRU replacement algorithm
... different replacement algorithms may give different results."  This
ablation reruns the Fig. 1 simple-sharing point under five policies.
"""

from __future__ import annotations

from repro import experiments
from repro.analysis.tables import format_table
from repro.sharing.schemes import simulate_no_sharing, simulate_simple_sharing
from repro.traces.workloads import make_workload

from benchmarks._shared import SCALE, write_result

POLICIES = ("lru", "fifo", "lfu", "size", "gdsf")


def test_ablation_replacement_policy(benchmark):
    trace, groups = make_workload("dec", scale=min(SCALE, 1.0))
    capacity, _doc_size = experiments.cache_sizes(trace, groups)

    def sweep():
        results = {}
        for policy in POLICIES:
            results[policy] = (
                simulate_no_sharing(trace, groups, capacity, policy=policy),
                simulate_simple_sharing(
                    trace, groups, capacity, policy=policy
                ),
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for policy, (alone, shared) in results.items():
        gain = shared.total_hit_ratio - alone.total_hit_ratio
        # The sharing benefit survives every replacement policy.
        assert gain > 0.02
        rows.append(
            (
                policy,
                f"{alone.total_hit_ratio:.4f}",
                f"{shared.total_hit_ratio:.4f}",
                f"+{gain * 100:.1f} pp",
            )
        )

    # FIFO cannot beat LRU on this recency-friendly workload.
    assert (
        results["fifo"][1].total_hit_ratio
        <= results["lru"][1].total_hit_ratio + 0.01
    )

    write_result(
        "ablation_replacement_policy",
        format_table(
            ("policy", "no-sharing-HR", "simple-sharing-HR", "gain"),
            rows,
            title="Ablation: replacement policy vs sharing benefit (dec)",
        ),
    )
