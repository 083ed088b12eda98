"""The HTTP/1.1-subset data plane the prototype speaks.

The proxies, the origin server, and the client drivers share this
module.  It implements the keep-alive streaming subset the benchmark
data plane needs (GETs only, ``Content-Length``-framed bodies):

- **Persistent connections.**  Requests and responses carry explicit
  ``Connection`` headers; a connection serves a request loop until one
  side sends ``Connection: close``, the idle timeout fires, or the
  stream ends.  Pipelined requests are answered strictly in order --
  the reader consumes one head at a time, so a client may write several
  requests back to back and the kernel/stream buffers bound the
  read-ahead.
- **One deadline per connection.**  The server's idle timeout and the
  client driver's request timeout are each one :class:`Deadline`
  timer per connection, stamped at every wait, never an
  ``asyncio.wait_for`` per request (lint rule SC001 flags one).
- **Streamed, bounded body I/O.**  A response's head travels in the
  same write as its first body chunk, and later chunks are
  :class:`memoryview` slices over the cached ``bytes`` object
  (:func:`send_response`), draining only when the transport's write
  buffer exceeds the caller's in-flight ceiling; bodies are read in
  bounded chunks into a preallocated buffer (:func:`read_body`), never
  through an unbounded ``reader.read()``/``readexactly()`` (lint rule
  SC001 enforces this for the whole proxy package).
- **Strict framing validation.**  Negative, non-numeric, or oversized
  ``Content-Length`` values and oversized heads raise
  :class:`~repro.errors.ProtocolError`, which the servers answer with
  a clean ``400`` -- never a traceback.

Extension headers (unchanged from the HTTP/1.0 prototype):

- ``X-Size`` on requests -- the trace-replay drivers carry the desired
  body size in the request (the paper's replay experiments do exactly
  this: "each request's URL carries the size of the request in the
  trace file, and the server replies with the specified number of
  bytes");
- ``X-Only-If-Cached`` on proxy-to-proxy fetches -- the serving peer
  must answer from cache or return 504, never recurse into its own
  cooperation logic;
- ``X-Cache`` on responses -- ``HIT``, ``REMOTE-HIT`` or ``MISS``, for
  the drivers' accounting;
- ``X-SC-Trace`` on requests and responses -- the distributed-tracing
  context (``<trace:08x>-<span:08x>``, see :mod:`repro.obs.spans`)
  propagated client -> proxy -> peer/origin; proxies echo it on
  responses so callers learn the trace their request joined.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import ProtocolError

#: Upper bound on a request/response head, to bound memory per connection.
MAX_HEAD_BYTES = 16 * 1024

#: Upper bound on a ``Content-Length`` a proxy will accept from a peer
#: or origin (well above ``max_object_size``; a hard sanity ceiling so a
#: corrupt header cannot make ``read_body`` allocate gigabytes).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default chunk for streamed body reads and writes.
DEFAULT_CHUNK_BYTES = 64 * 1024

#: In-flight write ceiling before ``send_response`` awaits ``drain()``;
#: the server also installs it as each client transport's high-water
#: mark.
DEFAULT_MAX_INFLIGHT = 256 * 1024

#: The most one socket read asks for.  asyncio's selector transports
#: ask ``recv`` for 256 KiB, which glibc's malloc serves above its
#: default 128 KiB mmap threshold: every read maps fresh pages, faults
#: them in, and shrinks the mapping to the bytes received.  64 KiB comes
#: from the heap, and no UDP datagram is larger.
READ_BYTES = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    502: "Bad Gateway",
    504: "Gateway Timeout",
}


def bound_reads(transport: asyncio.BaseTransport) -> None:
    """Cap each socket read on *transport* at :data:`READ_BYTES`.

    ``max_size`` is the read size of CPython's selector transports, an
    attribute the public transport types do not declare.
    """
    setattr(transport, "max_size", READ_BYTES)


class Deadline:
    """One timer bounding a sequence of waits, not one timer per wait.

    The owner sets :attr:`since` to the loop time when a bounded wait
    begins and clears it when the wait ends.  The timer checks the
    stamp: a wait open for *timeout* seconds sets :attr:`expired` and
    cancels :attr:`task`.  Otherwise it re-arms at the open wait's
    deadline, or one *timeout* ahead when no wait is open.  A *timeout*
    of 0 arms nothing.

    The server's request loop keeps one per connection to reap idle
    clients; a :class:`~repro.proxy.client.ClientDriver` keeps one to
    bound each fetch.  Either way a request costs a few attribute
    stores instead of the task and timer of an ``asyncio.wait_for``.
    """

    __slots__ = ("since", "task", "expired", "loop", "_timeout", "_timer")

    def __init__(self, timeout: float) -> None:
        #: Loop time the open wait began; ``None`` while none is open.
        self.since: Optional[float] = None
        #: The task an expired wait cancels (the one that created it,
        #: unless the owner rebinds it).
        self.task = asyncio.current_task()
        #: Set once the timer has cancelled :attr:`task`.
        self.expired = False
        self.loop = asyncio.get_running_loop()
        self._timeout = timeout
        self._timer = (
            self.loop.call_later(timeout, self._fire) if timeout else None
        )

    def _fire(self) -> None:
        now = self.loop.time()
        deadline = (now if self.since is None else self.since) + self._timeout
        if deadline > now:
            self._timer = self.loop.call_at(deadline, self._fire)
        elif self.task is not None:
            self.expired = True
            self.task.cancel()

    def cancel(self) -> None:
        """Disarm the timer (its owner is closing)."""
        if self._timer is not None:
            self._timer.cancel()


def _wants_keep_alive(version: str, headers: Dict[str, str]) -> bool:
    """HTTP/1.1 keep-alive semantics: persistent unless ``close``;
    HTTP/1.0 only with an explicit ``Connection: keep-alive``."""
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.1":
        return connection != "close"
    return connection == "keep-alive"


@dataclass
class HttpRequest:
    """A parsed GET request."""

    url: str
    headers: Dict[str, str] = field(default_factory=dict)
    version: str = "HTTP/1.1"

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked for a persistent connection."""
        return _wants_keep_alive(self.version, self.headers)


@dataclass
class HttpResponse:
    """A parsed response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the server will keep the connection open."""
        return _wants_keep_alive(self.version, self.headers)


async def _read_head(reader: asyncio.StreamReader) -> bytes:
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError("HTTP head exceeds stream limit") from exc
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("HTTP head exceeds size limit")
    return head


def _parse_headers(lines: Iterable[str]) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return headers


def parse_content_length(
    headers: Dict[str, str], limit: int = MAX_BODY_BYTES
) -> int:
    """Validated body length from *headers* (0 when absent).

    Rejects non-numeric, negative, and absurdly large values with a
    :class:`ProtocolError` so servers answer ``400`` instead of letting
    ``int()``/``readexactly`` raise through the connection handler.
    """
    text = headers.get("content-length", "0")
    try:
        length = int(text)
    except ValueError as exc:
        raise ProtocolError(f"malformed Content-Length {text!r}") from exc
    if length < 0:
        raise ProtocolError(f"negative Content-Length {text!r}")
    if length > limit:
        raise ProtocolError(
            f"Content-Length {length} exceeds limit {limit}"
        )
    return length


async def read_body(
    reader: asyncio.StreamReader,
    length: int,
    chunk_size: int = DEFAULT_CHUNK_BYTES,
) -> bytes:
    """Read exactly *length* body bytes in bounded chunks.

    Fills a preallocated buffer through a memoryview so no chunk is
    copied twice, and never asks the reader for more than *chunk_size*
    bytes at a time.
    """
    if length <= 0:
        return b""
    buf = bytearray(length)
    view = memoryview(buf)
    offset = 0
    while offset < length:
        chunk = await reader.read(min(chunk_size, length - offset))
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-body ({offset}/{length} bytes)"
            )
        view[offset : offset + len(chunk)] = chunk
        offset += len(chunk)
    return bytes(buf)


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HttpRequest]:
    """Read and parse one GET request.

    Returns ``None`` on a clean end of stream before any request bytes
    (the peer finished its keep-alive conversation); raises
    :class:`ProtocolError` on truncation mid-request or malformed data.
    """
    try:
        head = await _read_head(reader)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-request") from exc
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or parts[0] != "GET":
        raise ProtocolError(f"unsupported request line {lines[0]!r}")
    return HttpRequest(
        url=parts[1], headers=_parse_headers(lines[1:]), version=parts[2]
    )


async def read_response(reader: asyncio.StreamReader) -> HttpResponse:
    """Read and parse one Content-Length-framed response."""
    try:
        head = await _read_head(reader)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-response") from exc
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(f"malformed status line {lines[0]!r}")
    try:
        status = int(parts[1])
    except ValueError as exc:
        raise ProtocolError(f"malformed status code {parts[1]!r}") from exc
    headers = _parse_headers(lines[1:])
    length = parse_content_length(headers)
    body = await read_body(reader, length)
    return HttpResponse(
        status=status, headers=headers, body=body, version=parts[0]
    )


def write_request(
    writer: asyncio.StreamWriter,
    url: str,
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
) -> None:
    """Serialize one GET request onto *writer* (caller drains).

    Always emits an explicit ``Connection`` header so HTTP/1.0-era
    readers and the connection pool agree on the connection's fate.
    """
    head = [
        f"GET {url} HTTP/1.1",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    head.append("\r\n")
    writer.write("\r\n".join(head).encode("latin-1"))


async def send_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = False,
    chunk_size: int = DEFAULT_CHUNK_BYTES,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
) -> int:
    """Write one whole response onto *writer* (caller drains).

    The first ``write`` carries the head and the first *chunk_size*
    body bytes, so a body that fits in one chunk leaves in one
    ``send``.  Later chunks are zero-copy memoryview slices of the
    cached ``bytes`` object.  After every write the transport's unsent
    bytes are checked, and ``drain()`` is awaited when they exceed
    *max_inflight*, so one slow client cannot balloon the proxy's write
    buffers.  Returns the number of backpressure waits taken (the
    ``proxy_backpressure_waits_total`` increment).
    """
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append("\r\n")
    writer.write("\r\n".join(lines).encode("latin-1") + body[:chunk_size])
    waits = 0
    transport = writer.transport
    if transport.get_write_buffer_size() > max_inflight:
        waits += 1
        await writer.drain()
    if len(body) > chunk_size:
        view = memoryview(body)
        for offset in range(chunk_size, len(view), chunk_size):
            writer.write(view[offset : offset + chunk_size])
            if transport.get_write_buffer_size() > max_inflight:
                waits += 1
                await writer.drain()
    return waits


def synth_body(url: str, size: int) -> bytes:
    """Deterministic body bytes for *url* of exactly *size* bytes.

    Origin servers in the experiments serve synthetic content; making it
    a pure function of the URL lets tests verify end-to-end integrity of
    proxy-cached copies.
    """
    if size <= 0:
        return b""
    seed = (url.encode("utf-8") + b"|") * (size // (len(url) + 1) + 1)
    return seed[:size]
