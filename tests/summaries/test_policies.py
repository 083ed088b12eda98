"""Tests for the update policies and their CLI spec parser."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.protocol.update import FLIPS_PER_MESSAGE
from repro.summaries import (
    IntervalUpdatePolicy,
    PacketFillUpdatePolicy,
    SummaryConfig,
    SummaryNode,
    ThresholdUpdatePolicy,
    parse_update_policy,
)


def due(
    policy,
    new_documents=0,
    cached_documents=100,
    pending_records=0,
    now=0.0,
    last_update=0.0,
):
    """Ask *policy* about a node stub holding exactly these counters."""
    node = SimpleNamespace(
        new_since_update=new_documents,
        last_update_time=last_update,
        local=SimpleNamespace(pending_change_count=lambda: pending_records),
    )
    return policy.due(node, now, cached_documents)


class TestThreshold:
    def test_fires_at_fraction(self):
        policy = ThresholdUpdatePolicy(0.05)
        assert not due(policy, new_documents=4, cached_documents=100)
        assert due(policy, new_documents=5, cached_documents=100)

    def test_empty_cache_uses_floor_of_one(self):
        assert due(
            ThresholdUpdatePolicy(0.5), new_documents=1, cached_documents=0
        )

    def test_zero_threshold_is_live_and_fires_per_insert(self):
        policy = ThresholdUpdatePolicy(0.0)
        assert policy.live
        assert not due(policy, new_documents=0)
        assert due(policy, new_documents=1, cached_documents=10_000)

    def test_nonzero_threshold_is_not_live(self):
        assert not ThresholdUpdatePolicy(0.01).live

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_range_validated(self, bad):
        with pytest.raises(ConfigurationError):
            ThresholdUpdatePolicy(bad)


class TestInterval:
    def test_fires_on_elapsed_time(self):
        policy = IntervalUpdatePolicy(300.0)
        assert not due(policy, now=299.0, last_update=0.0)
        assert due(policy, now=300.0, last_update=0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            IntervalUpdatePolicy(0.0)


class TestPacketFill:
    def test_fires_on_pending_records(self):
        policy = PacketFillUpdatePolicy(342)
        assert not due(policy, pending_records=341)
        assert due(policy, pending_records=342)

    def test_default_is_one_mtu_of_flip_records(self):
        assert PacketFillUpdatePolicy().records == FLIPS_PER_MESSAGE == 342

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            PacketFillUpdatePolicy(0)


class TestParse:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("threshold:0.05", ThresholdUpdatePolicy(0.05)),
            ("threshold:0", ThresholdUpdatePolicy(0.0)),
            ("threshold", ThresholdUpdatePolicy()),
            ("interval:60", IntervalUpdatePolicy(60.0)),
            ("interval", IntervalUpdatePolicy()),
            ("packet-fill:100", PacketFillUpdatePolicy(100)),
            ("packet-fill", PacketFillUpdatePolicy()),
            ("  Threshold:0.1 ", ThresholdUpdatePolicy(0.1)),
        ],
    )
    def test_accepted_specs(self, spec, expected):
        assert parse_update_policy(spec) == expected

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus", "threshold:x", "interval:abc", "packet-fill:1.5",
         "threshold:2"],
    )
    def test_rejected_specs(self, spec):
        with pytest.raises(ConfigurationError):
            parse_update_policy(spec)

    def test_labels_are_stable(self):
        assert ThresholdUpdatePolicy(0.01).label() == "threshold=0.01"
        assert IntervalUpdatePolicy(300).label() == "interval=300s"
        assert PacketFillUpdatePolicy(342).label() == "packet-fill=342"


def keyword_due(policy, new, cached, pending, now, last_update):
    """The policies' rule as it read when ``due`` took every counter by
    keyword, whichever one the policy used."""
    if isinstance(policy, ThresholdUpdatePolicy):
        if policy.threshold == 0.0:
            return new > 0
        return new / max(1, cached) >= policy.threshold
    if isinstance(policy, IntervalUpdatePolicy):
        return now - last_update >= policy.interval
    return pending >= policy.records


policies = st.one_of(
    st.builds(
        ThresholdUpdatePolicy,
        st.one_of(
            st.just(0.0), st.floats(0.0, 1.0), st.sampled_from([0.01, 0.1])
        ),
    ),
    st.builds(IntervalUpdatePolicy, st.floats(0.001, 1e4)),
    st.builds(PacketFillUpdatePolicy, st.integers(1, 40)),
)
times = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@given(
    policies,
    st.integers(0, 2_000),
    st.integers(0, 2_000),
    st.integers(0, 50),
    times,
    times,
)
@settings(max_examples=300, deadline=None)
def test_positional_due_is_the_keyword_rule(
    policy, new, cached, pending, now, last_update
):
    """``policy.due(node, now, cached)`` and ``SummaryNode.due_for_update``
    answer as the keyword formula did, for all three policies."""
    node = SummaryNode(SummaryConfig(kind="exact-directory"), 1 << 20)
    for key in range(pending):
        node.local.add_key(key.to_bytes(16, "big"))
    node.new_since_update = new
    node.last_update_time = last_update
    assert node.local.pending_change_count() == pending
    expected = keyword_due(policy, new, cached, pending, now, last_update)
    assert policy.due(node, now, cached) is expected
    assert node.due_for_update(policy, now, cached) is expected
