"""Request-scoped distributed tracing: spans and context propagation.

This module models a request as a **trace**: a tree of spans sharing
one 32-bit trace id, with parent/child links, wall-clock start times,
``perf_counter`` durations, and typed attributes.  The point is the
*cross-proxy* view the paper's accounting needs (false hits, remote
hits, and inter-proxy message overhead are all relations between
events on different machines): a client request on proxy A, the
SC-ICP query round it triggers, the ``ICP_OP_QUERY`` handled on peer
B, and the peer fetch that follows all carry the same trace id, so the
cluster aggregator (:mod:`repro.obs.cluster`) can reassemble the full
causal chain from each proxy's span ring.

Context travels two ways:

- **HTTP hops** carry an ``X-SC-Trace: <trace:08x>-<span:08x>`` request
  header (:data:`TRACE_HEADER`, read by :func:`parse_context` and
  written by :func:`format_context`) -- client to proxy, proxy to peer,
  proxy to origin -- and proxies echo the header on responses so
  callers learn the trace id they joined;
- **SC-ICP datagrams** carry the trace id in the ICP header's Options
  field and the requester's root span id in Option Data on
  ``ICP_OP_QUERY`` (see ``docs/wire-protocol.md`` section 1), so a
  query on a remote peer joins the originating request's trace without
  touching payload formats.

Everything is dependency-free and single-threaded, like the registry.
Ids are 32-bit and non-zero; id 0 means "no context" on every carrier.
"""

from __future__ import annotations

import asyncio
import os
import re
import time
from collections import deque
from itertools import islice
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError

#: The HTTP header carrying trace context across hops.
TRACE_HEADER = "X-SC-Trace"

_ID_MASK = 0xFFFFFFFF


#: The ``X-SC-Trace`` grammar: exactly 8 hex digits, ``-``, 8 hex
#: digits, with surrounding whitespace tolerated.
_CONTEXT = re.compile(r"\s*([0-9a-fA-F]{8})-([0-9a-fA-F]{8})\s*")


#: One id in that form, either case.
_ID = re.compile(r"[0-9a-fA-F]{8}")


def format_id(value: int) -> str:
    """A 32-bit id as the 8-hex-digit form used on the wire and in JSON."""
    return f"{value & _ID_MASK:08x}"


def parse_id(value: str) -> Optional[int]:
    """An 8-hex-digit id (either case) back to its integer; else ``None``."""
    return int(value, 16) if _ID.fullmatch(value) else None


def format_context(trace_id: int, span_id: int) -> str:
    """Serialized ``X-SC-Trace`` value: ``tttttttt-ssssssss``."""
    # %-formatting: the cheapest formatter for this per-response string.
    return "%08x-%08x" % (trace_id & _ID_MASK, span_id & _ID_MASK)


def parse_context(value: str) -> Optional[Tuple[int, int]]:
    """Parse an ``X-SC-Trace`` value into ``(trace_id, span_id)``.

    The one parser every carrier of the header shares.  Only the
    documented grammar is accepted: ``int(x, 16)`` alone would also take
    a ``0x`` prefix, a sign, underscores or non-ASCII digits.  Absent,
    malformed or zero-trace context is ``None`` -- never an error:
    tracing is best-effort and a proxy must serve requests from clients
    that do not speak it.
    """
    match = _CONTEXT.fullmatch(value)
    if match is None:
        return None
    trace_id = int(match[1], 16)
    if trace_id == 0:
        return None
    return trace_id, int(match[2], 16)


class IdGenerator:
    """Non-zero 32-bit ids: an ``os.urandom``-seeded counter.

    Seeding from the OS (not the global ``random`` module, which tests
    reseed) makes ids from concurrently running proxies and client
    drivers collide with probability ~``n**2 / 2**32`` instead of
    always, so fused cluster snapshots keep traces from different
    processes apart.  One ``os.urandom`` call per generator, none per
    id.
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = int.from_bytes(os.urandom(4), "big")

    def next_id(self) -> int:
        """The next id in the sequence, skipping 0."""
        self._next = (self._next + 1) & _ID_MASK
        if self._next == 0:  # 0 means "no context" everywhere
            self._next = 1
        return self._next


class Span:
    """One named, timed operation within a trace.

    A ``Span`` object is the *builder* for a span that lives across an
    ``await``: it is *live* between :class:`SpanRing.start_span` and
    :meth:`end`, and ``duration`` is ``None`` while live.  A span with
    no ``await`` inside it is written finished, as a record, by
    :meth:`SpanRing.record`; reading the ring turns records back into
    ``Span`` objects.  ``attributes`` carry the decision record (e.g.
    how a miss resolved and how long each phase took); ``events`` are
    timestamped point-in-time marks within the span (e.g. each ICP
    reply).

    ``start`` is wall time, so spans from different proxies order on
    one clock; ``duration`` is a ``perf_counter`` delta, so a wall-clock
    step mid-span cannot make it negative.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "start",
        "duration", "status", "attributes", "events", "_t0",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int,
        name: str,
        start: float,
        attributes: Dict[str, object],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration: Optional[float] = None
        self.status = "unset"
        self.attributes = attributes
        self.events: List[Dict[str, object]] = []
        self._t0 = time.perf_counter()

    def header_value(self) -> str:
        """The ``X-SC-Trace`` value naming this span as the parent."""
        return format_context(self.trace_id, self.span_id)

    def set(self, **attributes: object) -> "Span":
        """Merge *attributes* into the span's attribute record."""
        self.attributes.update(attributes)
        return self

    def add_event(self, kind: str, **fields: object) -> "Span":
        """Append a timestamped point event within the span."""
        self.events.append(
            {"kind": kind, "timestamp": time.time(), **fields}
        )
        return self

    def end(self, status: str = "ok") -> "Span":
        """Close the span, fixing its duration and final status."""
        if self.duration is None:
            self.duration = time.perf_counter() - self._t0
            self.status = status
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[object],
    ) -> bool:
        """End the span on every exit path, including cancellation.

        In async code any ``await`` inside the span's extent is a
        cancellation point; ``with ring.start_span(...) as span:`` is
        the only shape that guarantees the span still ends (an unended
        span stays "live" forever and poisons duration aggregates).
        An explicit ``span.end(...)`` inside the block wins -- ``end``
        is idempotent -- so success paths can still record a specific
        status.
        """
        if exc is None:
            self.end("ok")
        elif isinstance(exc, asyncio.CancelledError):
            self.end("cancelled")
        else:
            self.end("error")
        return False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form; ids in the 8-hex-digit wire format."""
        return {
            "trace_id": format_id(self.trace_id),
            "span_id": format_id(self.span_id),
            "parent_id": (
                format_id(self.parent_id) if self.parent_id else None
            ),
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
            "events": [dict(event) for event in self.events],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name} trace={format_id(self.trace_id)} "
            f"span={format_id(self.span_id)} status={self.status})"
        )


#: A finished span as :meth:`SpanRing.record` writes it: one flat tuple
#: ``(trace_id, span_id, parent_id, name, start, duration, status, key,
#: value, key, value, ...)``.  Every field is an atomic value, so the
#: cyclic GC untracks the record on its first pass over it.
Record = Tuple[Any, ...]


def _as_span(entry: Union[Span, Record]) -> Span:
    """A ring entry as a :class:`Span`: a builder as is, a record rebuilt."""
    if isinstance(entry, Span):
        return entry
    span = Span(
        entry[0], entry[1], entry[2], entry[3], entry[4],
        dict(zip(entry[7::2], entry[8::2])),
    )
    span.duration = entry[5]
    span.status = entry[6]
    return span


class SpanRing:
    """A bounded buffer of the most recent spans, oldest first.

    An entry is either a finished span written by :meth:`record` -- one
    flat :data:`Record` tuple, no :class:`Span` object -- or a live
    builder from :meth:`start_span`, which enters when *started* so a
    scrape sees it while it is live.  :meth:`spans`, :meth:`trace` and
    :meth:`as_dicts` turn records back into spans when read.

    A full ring drops its oldest entry.  :attr:`dropped` is derived from
    the number of entries ever written, so a drop costs no callback; the
    proxy reads it into its ``trace_ring_dropped_total`` counter at
    scrape time.  The optional ``on_drop`` hook is still called once per
    drop.
    """

    #: ``False`` only on :class:`NullSpanRing`: callers skip propagation
    #: work entirely when the ring is the null one.
    enabled = True

    def __init__(
        self,
        capacity: int = 2048,
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._entries: Deque[Union[Span, Record]] = deque(maxlen=capacity)
        self._written = 0
        self._on_drop = on_drop
        self._ids = IdGenerator()

    @property
    def capacity(self) -> int:
        """Maximum number of retained spans."""
        return self._capacity

    @property
    def dropped(self) -> int:
        """Spans dropped from the full ring since the last :meth:`clear`."""
        return self._written - len(self._entries)

    def new_trace_id(self) -> int:
        """A fresh non-zero 32-bit trace id."""
        return self._ids.next_id()

    def record(
        self,
        name: str,
        trace_id: int,
        parent_id: int,
        start: float,
        duration: float,
        attributes: Tuple[object, ...],
        status: str = "ok",
    ) -> int:
        """Write one finished span; return its span id.

        The shape for a span with no ``await`` inside it: the caller
        timed it (*start* wall time, *duration* a ``perf_counter``
        delta) and passes its *attributes* as a flat ``(key, value,
        ...)`` tuple of atomic values, which become the record's tail.
        A zero *trace_id* starts a fresh trace.
        """
        span_id = self._ids.next_id()
        if self._on_drop is not None and len(self._entries) == self._capacity:
            self._on_drop()
        self._entries.append(
            (
                trace_id or self._ids.next_id(), span_id, parent_id,
                name, start, duration, status,
            )
            + attributes
        )
        self._written += 1
        return span_id

    def start_span(
        self,
        name: str,
        trace_id: Optional[int] = None,
        parent_id: int = 0,
        **attributes: object,
    ) -> Span:
        """Open a live span; a fresh trace id is allocated when none given."""
        span = Span(
            trace_id=(
                trace_id if trace_id else self.new_trace_id()
            ),
            span_id=self._ids.next_id(),
            parent_id=parent_id,
            name=name,
            start=time.time(),
            attributes=attributes,  # a fresh dict per call already
        )
        if self._on_drop is not None and len(self._entries) == self._capacity:
            self._on_drop()
        self._entries.append(span)
        self._written += 1
        return span

    def spans(
        self,
        trace_id: Optional[int] = None,
        name: Optional[str] = None,
        last: Optional[int] = None,
    ) -> List[Span]:
        """Retained spans, oldest first, optionally filtered.

        *last* keeps only the newest *last* entries; the filters then
        apply to those.  Only the entries returned become spans.
        """
        entries: Iterable[Union[Span, Record]] = self._entries
        if last is not None:
            entries = islice(entries, max(len(self._entries) - last, 0), None)
        out = []
        for entry in entries:
            if isinstance(entry, Span):
                entry_trace, entry_name = entry.trace_id, entry.name
            else:
                entry_trace, entry_name = entry[0], entry[3]
            if (trace_id is None or entry_trace == trace_id) and (
                name is None or entry_name == name
            ):
                out.append(_as_span(entry))
        return out

    def trace(self, trace_id: int) -> List[Span]:
        """Every retained span of one trace, oldest first."""
        return self.spans(trace_id=trace_id)

    def clear(self) -> None:
        """Discard all spans and reset the drop tally."""
        self._entries.clear()
        self._written = 0

    def as_dicts(
        self, trace_id: Optional[int] = None, last: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """JSON-ready list of the retained spans :meth:`spans` selects."""
        return [
            span.as_dict()
            for span in self.spans(trace_id=trace_id, last=last)
        ]

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SpanRing(spans={len(self._entries)}/{self._capacity}, "
            f"dropped={self.dropped})"
        )


class _NullSpan(Span):
    """The shared do-nothing span the null ring hands out.

    Its ids are all zero, which every propagation site already treats
    as "no context": nothing goes on the wire, nothing is retained.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(0, 0, 0, "", 0.0, {})

    def set(self, **attributes: object) -> "Span":
        return self

    def add_event(self, kind: str, **fields: object) -> "Span":
        return self

    def end(self, status: str = "ok") -> "Span":
        return self


#: The span every :class:`NullSpanRing` start returns.
NULL_SPAN = _NullSpan()


class NullSpanRing(SpanRing):
    """The disabled ring: retains nothing, allocates nothing.

    ``new_trace_id`` still returns 0 so disabled proxies put no trace
    context on any wire; the data-plane cost of ``trace_enabled=False``
    is one attribute test per site (the measured overhead is tabled in
    ``docs/observability.md``).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def new_trace_id(self) -> int:
        return 0

    def start_span(
        self,
        name: str,
        trace_id: Optional[int] = None,
        parent_id: int = 0,
        **attributes: object,
    ) -> Span:
        return NULL_SPAN

    def record(
        self,
        name: str,
        trace_id: int,
        parent_id: int,
        start: float,
        duration: float,
        attributes: Tuple[object, ...],
        status: str = "ok",
    ) -> int:
        return 0


#: The process-shared disabled ring.
NULL_SPAN_RING = NullSpanRing()
