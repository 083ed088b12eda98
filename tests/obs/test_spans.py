"""Unit tests for the span model and trace-context propagation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.spans import (
    NULL_SPAN,
    NULL_SPAN_RING,
    NullSpanRing,
    SpanRing,
    format_context,
    format_id,
    parse_context,
)

IDS = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestFormatId:
    def test_eight_hex_digits(self):
        assert format_id(0x1F) == "0000001f"
        assert format_id(0xDEADBEEF) == "deadbeef"

    def test_masks_to_32_bits(self):
        assert format_id(0x1_0000_0001) == "00000001"


class TestTraceContext:
    """The ``X-SC-Trace`` value, written by :func:`format_context` and
    read by :func:`parse_context`."""

    def test_header_round_trip(self):
        value = format_context(0xDEADBEEF, 0x00000042)
        assert value == "deadbeef-00000042"
        assert parse_context(value) == (0xDEADBEEF, 0x42)

    def test_parse_tolerates_whitespace(self):
        assert parse_context("  deadbeef-00000042 ") == (0xDEADBEEF, 0x42)

    @pytest.mark.parametrize(
        "value",
        [
            "",
            "deadbeef",  # no separator
            "dead-beef",  # wrong field widths
            "deadbeef-0000004",  # 7-digit span
            "deadbeef-000000422",  # 9-digit span
            "zzzzzzzz-00000042",  # non-hex
            "00000000-00000042",  # zero trace id means no context
        ],
    )
    def test_parse_rejects_malformed(self, value):
        assert parse_context(value) is None


class TestParseContext:
    """The one ``X-SC-Trace`` parser the proxy and the client share."""

    @pytest.mark.parametrize(
        "value",
        [
            # 8 + 8 characters that int(x, 16) accepts but that are not
            # 8 + 8 hex digits.
            "0x00abcd-00000001",  # 0x prefix
            "+1234567-00000001",  # sign
            "1_2_3_45-0000_001",  # digit separators
            "deadbeef-+0000001",  # sign in the span id
        ],
    )
    def test_rejects_what_int_accepts(self, value):
        assert parse_context(value) is None

    def test_rejects_non_ascii_digits(self):
        assert parse_context("\u0661" * 8 + "-00000001") is None

    def test_zero_trace_is_no_context(self):
        assert parse_context("00000000-00000042") is None

    def test_accepts_either_case_and_surrounding_space(self):
        assert parse_context(" DEADBEEF-0000002a ") == (0xDEADBEEF, 0x2A)

    @given(trace_id=IDS.filter(bool), span_id=IDS)
    def test_round_trip(self, trace_id, span_id):
        value = format_context(trace_id, span_id)
        assert parse_context(value) == (trace_id, span_id)

    def test_span_writes_its_own_context(self):
        span = SpanRing(capacity=4).start_span("op")
        assert parse_context(span.header_value()) == (
            span.trace_id,
            span.span_id,
        )


class TestSpanRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SpanRing(capacity=0)

    def test_fresh_trace_ids_are_non_zero(self):
        ring = SpanRing(capacity=8)
        ids = {ring.new_trace_id() for _ in range(64)}
        assert 0 not in ids
        assert len(ids) == 64

    def test_start_span_allocates_and_retains(self):
        ring = SpanRing(capacity=8)
        span = ring.start_span("op", url="u")
        assert span.trace_id != 0
        assert span.span_id != 0
        assert span.parent_id == 0
        assert span.duration is None
        assert span.attributes == {"url": "u"}
        assert ring.spans() == [span]

    def test_spans_never_share_attributes(self):
        ring = SpanRing(capacity=8)
        attrs = {"url": "u"}
        first = ring.start_span("a", **attrs)
        second = ring.start_span("b", **attrs)
        first.set(extra=1)
        assert second.attributes == {"url": "u"}
        assert attrs == {"url": "u"}

    def test_continue_trace_and_parenting(self):
        ring = SpanRing(capacity=8)
        parent = ring.start_span("root")
        child = ring.start_span(
            "child",
            trace_id=parent.trace_id,
            parent_id=parent.span_id,
        )
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert ring.trace(parent.trace_id) == [parent, child]
        assert ring.spans(name="child") == [child]

    def test_end_fixes_duration_once(self):
        ring = SpanRing(capacity=8)
        span = ring.start_span("op")
        span.end(status="error")
        first = span.duration
        assert first is not None
        assert span.status == "error"
        span.end()  # idempotent: status and duration unchanged
        assert span.duration == first
        assert span.status == "error"

    def test_events_are_timestamped_in_order(self):
        ring = SpanRing(capacity=8)
        span = ring.start_span("op")
        span.add_event("first", detail=1).add_event("second")
        kinds = [event["kind"] for event in span.events]
        assert kinds == ["first", "second"]
        assert span.events[0]["detail"] == 1
        assert span.events[0]["timestamp"] <= span.events[1]["timestamp"]

    def test_as_dict_uses_wire_id_format(self):
        ring = SpanRing(capacity=8)
        root = ring.start_span("root").end()
        child = ring.start_span(
            "child", trace_id=root.trace_id, parent_id=root.span_id
        )
        root_d, child_d = ring.as_dicts()
        assert root_d["trace_id"] == format_id(root.trace_id)
        assert root_d["parent_id"] is None
        assert child_d["parent_id"] == format_id(root.span_id)
        assert root_d["status"] == "ok"
        assert child_d["duration"] is None  # still live

    def test_full_ring_drops_oldest_and_reports(self):
        drops = []
        ring = SpanRing(capacity=2, on_drop=lambda: drops.append(1))
        first = ring.start_span("a")
        ring.start_span("b")
        ring.start_span("c")
        assert len(ring) == 2
        assert ring.dropped == 1
        assert len(drops) == 1
        assert first not in ring.spans()

    def test_clear_resets_spans_and_drop_tally(self):
        ring = SpanRing(capacity=1)
        ring.start_span("a")
        ring.start_span("b")
        ring.clear()
        assert len(ring) == 0
        assert ring.dropped == 0


class TestNullSpanRing:
    def test_is_disabled_and_allocates_nothing(self):
        ring = NullSpanRing()
        assert ring.enabled is False
        assert ring.new_trace_id() == 0
        span = ring.start_span("op", url="u")
        assert span is NULL_SPAN
        assert len(ring) == 0
        assert ring.as_dicts() == []

    def test_null_span_ignores_mutation(self):
        span = NULL_SPAN_RING.start_span("op")
        span.set(key="value").add_event("kind").end(status="error")
        assert span.attributes == {}
        assert span.events == []
        assert span.status == "unset"
        assert span.trace_id == 0


class TestSpanContextManager:
    """The with-protocol added for SC008: spans end on *every* exit,
    including cancellation -- the leak class the lint rule flags."""

    def test_clean_exit_ends_ok(self):
        ring = SpanRing(capacity=8)
        with ring.start_span("op") as span:
            pass
        assert span.duration is not None
        assert span.status == "ok"

    def test_exception_exit_ends_error_and_propagates(self):
        ring = SpanRing(capacity=8)
        with pytest.raises(RuntimeError):
            with ring.start_span("op") as span:
                raise RuntimeError("boom")
        assert span.duration is not None
        assert span.status == "error"

    def test_cancellation_ends_cancelled(self):
        import asyncio

        ring = SpanRing(capacity=8)

        async def handler() -> None:
            with ring.start_span("op"):
                await asyncio.sleep(60)

        async def scenario() -> None:
            task = asyncio.create_task(handler())
            await asyncio.sleep(0)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

        asyncio.run(scenario())
        (span,) = ring.spans(name="op")
        assert span.duration is not None
        assert span.status == "cancelled"

    def test_explicit_end_inside_block_wins(self):
        ring = SpanRing(capacity=8)
        with ring.start_span("op") as span:
            span.end("error")
        assert span.status == "error"  # __exit__ must not overwrite
