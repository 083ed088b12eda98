"""Fig. 5: total hit ratio under different summary representations.

Reads the shared representation sweep; benchmarks one representative
simulation (bloom-16 on upisa) so the timing numbers measure simulator
throughput.
"""

from __future__ import annotations

from repro import experiments
from repro.summaries import SummaryConfig
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_summary_sharing,
)
from repro.traces.workloads import make_workload

from benchmarks._shared import (
    SCALE,
    representation_sweep,
    sweep_table,
    write_result,
)

BLOOM_KEYS = ("bloom-8", "bloom-16", "bloom-32")


def test_fig5_hit_ratios(benchmark):
    trace, groups = make_workload("upisa", scale=min(SCALE, 1.0))
    capacity, doc_size = experiments.cache_sizes(trace, groups)
    config = SummarySharingConfig(
        summary=SummaryConfig(kind="bloom", load_factor=16),
        expected_doc_size=doc_size,
    )
    benchmark.pedantic(
        simulate_summary_sharing,
        args=(trace, groups, capacity, config),
        rounds=1,
        iterations=1,
    )

    sections = []
    for workload in experiments.ALL_WORKLOADS:
        results = representation_sweep(workload)
        # Bloom summaries achieve virtually the exact directory's hit
        # ratio (the paper's Fig. 5 observation).
        exact_hr = results["exact-directory"].total_hit_ratio
        for key in BLOOM_KEYS:
            assert abs(results[key].total_hit_ratio - exact_hr) < 0.02
        # And all representations stay close to the ICP oracle.
        icp_hr = results["icp"].total_hit_ratio
        assert exact_hr > icp_hr - 0.02
        sections.append(
            sweep_table(
                workload,
                columns=(lambda r: f"{r.total_hit_ratio:.4f}",),
                headers=("total-hit-ratio",),
                title=f"Fig. 5 ({workload}): total hit ratio",
            )
        )
    write_result("fig5_hit_ratios", "\n\n".join(sections))
