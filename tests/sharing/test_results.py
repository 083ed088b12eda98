"""Tests for simulation result arithmetic."""

from __future__ import annotations

import pytest

from repro.sharing.results import MessageCounts, SharingResult


class TestMessageCounts:
    def test_totals_follow_paper_accounting(self):
        msgs = MessageCounts(
            query_messages=10,
            reply_messages=10,
            update_messages=5,
            query_bytes=700,
            reply_bytes=700,
            update_bytes=200,
        )
        # Fig. 7 counts queries + updates, not replies.
        assert msgs.total_messages == 15
        assert msgs.total_bytes == 900

    def test_per_request_normalization(self):
        msgs = MessageCounts(query_messages=30, update_messages=20)
        assert msgs.per_request(100) == pytest.approx(0.5)
        assert msgs.per_request(0) == 0.0

    def test_bytes_per_request(self):
        msgs = MessageCounts(query_bytes=500, update_bytes=500)
        assert msgs.bytes_per_request(100) == pytest.approx(10.0)


class TestSharingResult:
    def make(self) -> SharingResult:
        return SharingResult(
            scheme="test",
            trace_name="t",
            num_proxies=4,
            requests=1000,
            local_hits=300,
            remote_hits=100,
            false_hits=20,
            false_misses=5,
            remote_stale_hits=8,
            bytes_requested=10_000,
            bytes_hit=4_000,
            summary_memory_bytes=2048,
            cache_capacity_bytes=204_800,
        )

    def test_hit_ratios(self):
        r = self.make()
        assert r.total_hits == 400
        assert r.total_hit_ratio == pytest.approx(0.4)
        assert r.byte_hit_ratio == pytest.approx(0.4)

    def test_error_ratios(self):
        r = self.make()
        assert r.false_hit_ratio == pytest.approx(0.02)
        assert r.false_miss_ratio == pytest.approx(0.005)
        assert r.remote_stale_hit_ratio == pytest.approx(0.008)

    def test_memory_ratio(self):
        r = self.make()
        assert r.summary_memory_ratio == pytest.approx(0.01)

    def test_zero_division_guards(self):
        r = SharingResult(scheme="s", trace_name="t", num_proxies=2)
        assert r.total_hit_ratio == 0.0
        assert r.byte_hit_ratio == 0.0
        assert r.false_hit_ratio == 0.0
        assert r.messages_per_request == 0.0
        assert r.summary_memory_ratio == 0.0
