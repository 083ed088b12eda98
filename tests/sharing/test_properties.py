"""Property-based tests of the sharing simulators over random traces."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.sharing.schemes import (
    simulate_global_cache,
    simulate_no_sharing,
    simulate_simple_sharing,
    simulate_single_copy_sharing,
)
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_summary_sharing,
)
from repro.traces.model import Request, Trace

requests_strategy = st.lists(
    st.tuples(
        st.integers(0, 7),  # client
        st.integers(0, 15),  # document
        st.integers(0, 1),  # version
    ),
    min_size=1,
    max_size=80,
)


def build_trace(raw) -> Trace:
    # Versions must be monotone per document for the trace to be
    # physically sensible; clamp them to a running maximum.
    latest = {}
    requests = []
    for i, (client, doc, version) in enumerate(raw):
        version = max(version, latest.get(doc, 0))
        latest[doc] = version
        requests.append(
            Request(
                timestamp=float(i),
                client_id=client,
                url=f"http://h{doc % 4}.com/d{doc}",
                size=100 + doc,
                version=version,
            )
        )
    return Trace(requests=requests, name="prop")


@given(requests_strategy, st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_conservation_across_all_schemes(raw, groups):
    """Every simulator accounts for every request exactly once and
    never reports more hits than requests."""
    trace = build_trace(raw)
    capacity = 5000
    results = [
        simulate_no_sharing(trace, groups, capacity),
        simulate_simple_sharing(trace, groups, capacity),
        simulate_single_copy_sharing(trace, groups, capacity),
        simulate_global_cache(trace, groups, capacity),
        simulate_icp(trace, groups, capacity),
    ]
    for r in results:
        assert r.requests == len(trace)
        assert 0 <= r.total_hits <= r.requests
        assert 0 <= r.bytes_hit <= r.bytes_requested

    no_share, simple = results[0], results[1]
    # Sharing can only help (oracle discovery, same caches).
    assert simple.total_hits >= no_share.local_hits


@given(
    requests_strategy,
    st.sampled_from(["exact-directory", "server-name", "bloom"]),
    st.sampled_from([0.0, 0.05, 0.5]),
)
@settings(max_examples=60, deadline=None)
def test_summary_sharing_invariants(raw, kind, threshold):
    trace = build_trace(raw)
    groups = 3
    result = simulate_summary_sharing(
        trace,
        groups,
        5000,
        SummarySharingConfig(
            summary=SummaryConfig(kind=kind, load_factor=8),
            update_policy=ThresholdUpdatePolicy(threshold),
            expected_doc_size=128,
        ),
    )
    assert result.requests == len(trace)
    # A request is at most one of: local hit, remote hit, miss.
    assert result.local_hits + result.remote_hits <= result.requests
    # False hits and stale hits only happen on non-local-hit requests.
    assert (
        result.false_hits + result.remote_stale_hits
        <= result.requests - result.local_hits
    )
    # Update messages always come in (n-1)-sized bursts.
    assert result.messages.update_messages % (groups - 1) == 0
    # Queries and replies pair up.
    assert (
        result.messages.query_messages == result.messages.reply_messages
    )


@given(requests_strategy)
@settings(max_examples=40, deadline=None)
def test_exact_directory_live_equals_icp_hits(raw):
    """With live exact summaries, summary sharing discovers exactly the
    hits ICP's flooding discovers."""
    trace = build_trace(raw)
    live = simulate_summary_sharing(
        trace,
        3,
        5000,
        SummarySharingConfig(
            summary=SummaryConfig(kind="exact-directory"),
            update_policy=ThresholdUpdatePolicy(0.0),
        ),
    )
    icp = simulate_icp(trace, 3, 5000)
    assert live.local_hits == icp.local_hits
    assert live.remote_hits == icp.remote_hits
    assert live.remote_stale_hits == icp.remote_stale_hits
    # ...with no more queries than ICP ever sends.
    assert (
        live.messages.query_messages <= icp.messages.query_messages
    )
