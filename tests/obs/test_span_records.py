"""Finished spans as records, and span durations on the monotonic clock.

``SpanRing.record`` writes a span that has no ``await`` inside it as one
flat tuple; reading the ring turns it back into the ``Span`` and dict
shapes every consumer sees.
"""

from __future__ import annotations

import gc
import time

from repro.obs import spans as spans_module
from repro.obs.spans import (
    NULL_SPAN_RING,
    SpanRing,
    format_id,
    parse_id,
)

ATTRS = ("proxy", "p0", "url", "u", "source", "HIT", "bytes", 10)


class TestRecord:
    def test_reads_back_as_a_finished_span(self):
        ring = SpanRing(capacity=8)
        span_id = ring.record("http.request", 0xCAFE, 0x11, 5.0, 0.25, ATTRS)
        (span,) = ring.spans()
        assert (span.trace_id, span.span_id, span.parent_id) == (
            0xCAFE,
            span_id,
            0x11,
        )
        assert (span.name, span.start, span.duration) == (
            "http.request",
            5.0,
            0.25,
        )
        assert span.status == "ok"
        assert span.attributes == {
            "proxy": "p0",
            "url": "u",
            "source": "HIT",
            "bytes": 10,
        }
        assert span.events == []

    def test_dict_shape_matches_a_builder(self):
        ring = SpanRing(capacity=8)
        ring.record("op", 0, 0, 1.0, 0.5, ("k", 1), status="error")
        built = ring.start_span("op", k=1).end(status="error")
        record_d, built_d = ring.as_dicts()
        assert record_d.keys() == built_d.keys()
        assert record_d["status"] == "error"
        assert record_d["attributes"] == {"k": 1}
        assert record_d["parent_id"] is None
        assert record_d["trace_id"] == format_id(ring.spans()[0].trace_id)
        assert built.duration is not None

    def test_zero_trace_id_starts_a_fresh_trace(self):
        ring = SpanRing(capacity=8)
        ring.record("a", 0, 0, 0.0, 0.0, ())
        ring.record("b", 0, 0, 0.0, 0.0, ())
        first, second = ring.spans()
        assert first.trace_id and second.trace_id
        assert first.trace_id != second.trace_id

    def test_records_and_builders_share_one_order(self):
        ring = SpanRing(capacity=8)
        root = ring.start_span("root")
        ring.record("child", root.trace_id, root.span_id, 0.0, 0.0, ())
        ring.record("other", 0, 0, 0.0, 0.0, ())
        names = [span.name for span in ring.trace(root.trace_id)]
        assert names == ["root", "child"]
        assert ring.spans(name="other")[0].name == "other"

    def test_a_finished_record_is_not_gc_tracked(self):
        ring = SpanRing(capacity=8)
        ring.record("op", 1, 2, 3.0, 0.1, ATTRS)
        gc.collect()
        (entry,) = ring._entries
        assert not gc.is_tracked(entry)

    def test_full_ring_counts_drops_without_a_hook(self):
        ring = SpanRing(capacity=4)
        for i in range(10):
            ring.record("op", 0, 0, float(i), 0.0, ())
        assert len(ring) == 4
        assert ring.dropped == 6
        assert [span.start for span in ring.spans()] == [6.0, 7.0, 8.0, 9.0]
        ring.clear()
        assert ring.dropped == 0

    def test_on_drop_hook_sees_record_drops_too(self):
        drops = []
        ring = SpanRing(capacity=1, on_drop=lambda: drops.append(1))
        ring.record("a", 0, 0, 0.0, 0.0, ())
        ring.record("b", 0, 0, 0.0, 0.0, ())
        assert drops == [1]
        assert ring.dropped == 1

    def test_null_ring_retains_nothing(self):
        assert NULL_SPAN_RING.record("op", 7, 0, 0.0, 0.0, ATTRS) == 0
        assert len(NULL_SPAN_RING) == 0


class TestReadsBuildOnlyWhatTheyReturn:
    def test_last_and_trace_filters_build_only_matches(self, monkeypatch):
        ring = SpanRing(capacity=32)
        for i in range(32):
            ring.record("op", 1 + i % 4, 0, float(i), 0.0, ())
        built = []
        init = spans_module.Span.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(spans_module.Span, "__init__", counting_init)
        newest = ring.as_dicts(last=5)
        assert [d["start"] for d in newest] == [27.0, 28.0, 29.0, 30.0, 31.0]
        assert len(built) == 5
        built.clear()
        assert len(ring.as_dicts(trace_id=2)) == 8
        assert len(built) == 8

    def test_last_beyond_the_ring_returns_everything(self):
        ring = SpanRing(capacity=4)
        ring.record("op", 0, 0, 0.0, 0.0, ())
        assert len(ring.spans(last=64)) == 1


class TestParseId:
    def test_round_trips_format_id_in_either_case(self):
        assert parse_id(format_id(0xCAFE)) == 0xCAFE
        assert parse_id("DEADBEEF") == 0xDEADBEEF

    def test_rejects_anything_else(self):
        for value in ("", "cafe", "0x00cafe", "+1234567", "deadbeef0"):
            assert parse_id(value) is None


class TestDurationClock:
    def test_wall_clock_step_back_keeps_duration_non_negative(
        self, monkeypatch
    ):
        wall = [1_000.0]
        monkeypatch.setattr(time, "time", lambda: wall[0])
        ring = SpanRing(capacity=4)
        span = ring.start_span("op")
        wall[0] -= 60.0  # the wall clock steps back mid-span
        span.end()
        assert span.start == 1_000.0  # start stays wall time
        assert span.duration is not None
        assert span.duration >= 0.0
        assert span.duration < 60.0
