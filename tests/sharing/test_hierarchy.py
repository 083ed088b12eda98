"""Tests for the hierarchical (parent/child) sharing extension."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sharing.hierarchy import simulate_hierarchy
from repro.sharing.messages import whole_filter_update_bytes
from repro.sharing.summary_sharing import SummarySharingConfig
from repro.summaries import SummaryConfig, SummaryNode, ThresholdUpdatePolicy
from repro.traces.model import Request, Trace


@pytest.fixture(scope="module")
def shared_doc_trace():
    """Two children; child 1 re-requests what child 0 fetched."""
    return Trace(
        name="hier",
        requests=[
            Request(0.0, 0, "http://a.com/1", 100),
            Request(1.0, 1, "http://a.com/1", 100),  # sibling/parent hit
            Request(2.0, 0, "http://b.com/2", 100),
            Request(3.0, 1, "http://b.com/2", 100),
            Request(4.0, 1, "http://c.com/3", 100),  # unique to child 1
        ],
    )


class TestByHand:
    def test_without_siblings_parent_absorbs_repeats(self, shared_doc_trace):
        r = simulate_hierarchy(
            shared_doc_trace,
            num_children=2,
            child_capacity=10_000,
            parent_capacity=10_000,
            sibling_sharing=False,
        )
        # Every first fetch goes to origin via the parent; the repeats
        # by the other child hit the parent's cache.
        assert r.origin_fetches == 3
        assert r.parent_hits == 2
        assert r.sibling_hits == 0
        assert r.parent_requests == 5
        assert r.total_hit_ratio == pytest.approx(2 / 5)

    def test_siblings_offload_the_parent(self, shared_doc_trace):
        r = simulate_hierarchy(
            shared_doc_trace,
            num_children=2,
            child_capacity=10_000,
            parent_capacity=10_000,
            sibling_sharing=True,
        )
        # The repeats are now sibling hits; the parent sees only the
        # three cold fetches.
        assert r.sibling_hits == 2
        assert r.parent_requests == 3
        assert r.origin_fetches == 3
        assert r.total_hit_ratio == pytest.approx(2 / 5)
        assert r.sibling_query_messages >= 2


class TestInvariants:
    def test_accounting_partitions_requests(self, small_trace):
        r = simulate_hierarchy(
            small_trace,
            num_children=4,
            child_capacity=100_000,
            parent_capacity=400_000,
        )
        assert (
            r.child_hits
            + r.sibling_hits
            + r.parent_hits
            + r.origin_fetches
            == r.requests
        )
        assert r.parent_requests == r.parent_hits + r.origin_fetches

    def test_sibling_sharing_reduces_parent_load(self, small_trace):
        kwargs = dict(
            num_children=4,
            child_capacity=100_000,
            parent_capacity=400_000,
        )
        without = simulate_hierarchy(
            small_trace, sibling_sharing=False, **kwargs
        )
        with_sib = simulate_hierarchy(
            small_trace, sibling_sharing=True, **kwargs
        )
        assert with_sib.parent_requests < without.parent_requests
        assert with_sib.sibling_hits > 0
        # Total origin avoidance stays comparable either way.
        assert abs(
            with_sib.total_hit_ratio - without.total_hit_ratio
        ) < 0.05

    def test_origin_ratio_complement(self, small_trace):
        r = simulate_hierarchy(
            small_trace,
            num_children=4,
            child_capacity=100_000,
            parent_capacity=400_000,
        )
        assert r.total_hit_ratio + r.origin_traffic_ratio == pytest.approx(
            1.0
        )

    def test_validation(self, small_trace):
        with pytest.raises(ConfigurationError):
            simulate_hierarchy(
                small_trace,
                num_children=0,
                child_capacity=1000,
                parent_capacity=1000,
            )


class TestUpdateEncoding:
    def test_sibling_updates_never_cost_more_than_the_whole_array(
        self, small_trace
    ):
        # Small filters and a lazy threshold: most deltas carry more flip
        # records than the whole bit array has bytes, so the paper's
        # "whichever is smaller" rule must pick the array.
        config = SummarySharingConfig(
            summary=SummaryConfig(kind="bloom", load_factor=16),
            update_policy=ThresholdUpdatePolicy(0.5),
            expected_doc_size=2048,
        )
        child_capacity = 64 * 1024
        r = simulate_hierarchy(
            small_trace,
            num_children=4,
            child_capacity=child_capacity,
            parent_capacity=400_000,
            summary_config=config,
        )
        num_bits = SummaryNode(
            config.summary, child_capacity, doc_size=config.expected_doc_size
        ).local.num_bits
        assert r.sibling_update_messages > 0
        assert r.sibling_update_bytes <= (
            r.sibling_update_messages * whole_filter_update_bytes(num_bits)
        )
