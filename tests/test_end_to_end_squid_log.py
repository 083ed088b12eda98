"""End-to-end: a real-world workflow from a Squid access.log on disk.

A downstream user's path through the library: parse an access log,
characterize it, pick parameters, simulate sharing over it.  This test
drives that entire pipeline with a log written in Squid's native format.
"""

from __future__ import annotations

import pytest

from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_no_sharing,
    simulate_summary_sharing,
)
from repro.traces import (
    compute_stats,
    mean_cacheable_size,
    read_squid_log,
    sharing_potential,
    write_squid_log,
)
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace


@pytest.fixture(scope="module")
def squid_log_path(tmp_path_factory):
    """A realistic access.log on disk, written in Squid's format."""
    trace = generate_trace(
        SyntheticTraceConfig(
            name="squid-e2e",
            num_requests=5000,
            num_clients=24,
            num_documents=1500,
            mean_size=2048,
            max_size=128 * 1024,
            mod_probability=0.0,  # logs carry no validators
            seed=88,
        )
    )
    path = tmp_path_factory.mktemp("logs") / "access.log"
    write_squid_log(trace, path)
    return path


def test_full_pipeline_from_access_log(squid_log_path):
    # 1. Parse the operator's log.
    trace = read_squid_log(squid_log_path)
    assert len(trace) == 5000

    # 2. Characterize it.
    stats = compute_stats(trace)
    assert stats.max_hit_ratio > 0.2
    potential = sharing_potential(trace, 4)
    assert potential > 0.02  # sharing is worth considering

    # 3. Derive configuration from the workload itself.
    capacity = max(1, int(stats.infinite_cache_bytes * 0.10 / 4))
    doc_size = mean_cacheable_size(trace)

    # 4. Simulate: does summary cache deliver on this log?
    alone = simulate_no_sharing(trace, 4, capacity)
    icp = simulate_icp(trace, 4, capacity)
    bloom = simulate_summary_sharing(
        trace,
        4,
        capacity,
        SummarySharingConfig(
            summary=SummaryConfig(kind="bloom", load_factor=16),
            update_policy=ThresholdUpdatePolicy(0.05),
            expected_doc_size=doc_size,
        ),
    )

    # The pipeline's verdict must match the paper's story: sharing
    # lifts the hit ratio, and summary cache gets (almost) all of ICP's
    # benefit at a fraction of its messages.
    assert icp.total_hit_ratio > alone.total_hit_ratio + 0.01
    assert bloom.total_hit_ratio > icp.total_hit_ratio - 0.02
    assert (
        bloom.messages.query_messages < icp.messages.query_messages / 3
    )
