"""The HTTP/1.1-subset data plane the prototype speaks.

The proxies, the origin server, and the client drivers share this
module.  It implements the keep-alive streaming subset the benchmark
data plane needs (GETs only, ``Content-Length``-framed bodies):

- **Heads read in place.**  Servers (proxies and the origin) accept
  connections through :class:`HttpConnection`, an
  :class:`asyncio.BufferedProtocol`: the socket reads into one
  preallocated buffer of :data:`MAX_HEAD_BYTES`, the head's blank line
  is found in place, and :func:`parse_request` parses it synchronously.
  An answer that needs no ``await`` (a proxy's local hit, say) is
  written from inside the read callback, with no task and no stream
  object; only an answer that must wait becomes a task.
- **Persistent connections.**  Requests and responses carry explicit
  ``Connection`` headers; a connection serves requests until one side
  sends ``Connection: close``, the idle timeout fires, or the stream
  ends.  Pipelined requests are answered strictly in order -- no head
  is parsed while an earlier answer is pending, so a client may write
  several requests back to back and the connection's buffer bounds the
  read-ahead.
- **One deadline per connection.**  The server's idle timeout and the
  client driver's request timeout are each one :class:`Deadline`
  timer per connection, stamped at every wait, never an
  ``asyncio.wait_for`` per request (lint rule SC001 flags one).
- **Streamed, bounded body I/O.**  A response's head travels in the
  same write as its first body chunk, and later chunks are
  :class:`memoryview` slices over the cached ``bytes`` object, written
  while the transport stays below its high-water mark
  (:data:`DEFAULT_MAX_INFLIGHT`) and resumed when it drains; clients
  read bodies in bounded chunks into a preallocated buffer
  (:func:`read_body`), never through an unbounded
  ``reader.read()``/``readexactly()`` (lint rule SC001 enforces this for
  the whole proxy package).
- **Strict framing validation.**  Negative, non-numeric, or oversized
  ``Content-Length`` values and oversized heads raise
  :class:`~repro.errors.ProtocolError`, which the servers answer with
  a clean ``400`` -- never a traceback.

Extension headers (unchanged from the HTTP/1.0 prototype):

- ``X-Size`` on requests -- the trace-replay drivers carry the desired
  body size in the request (the paper's replay experiments do exactly
  this: "each request's URL carries the size of the request in the
  trace file, and the server replies with the specified number of
  bytes"); the origin answers ``400`` to a size above
  :data:`MAX_BODY_BYTES`;
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
import logging
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Dict,
    Iterable,
    Optional,
    Set,
    Tuple,
    Union,
    cast,
)

from repro.errors import ProtocolError

logger = logging.getLogger(__name__)

#: Upper bound on a request/response head, to bound memory per connection.
MAX_HEAD_BYTES = 16 * 1024

#: Upper bound on a ``Content-Length`` a proxy will accept from a peer
#: or origin (well above ``max_object_size``; a hard sanity ceiling so a
#: corrupt header cannot make ``read_body`` allocate gigabytes).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default chunk for streamed body reads and writes.
DEFAULT_CHUNK_BYTES = 64 * 1024

#: Each server transport's high-water mark: a response stops writing
#: body chunks while more than this sits unsent.
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
    calls *on_expire*, or cancels :attr:`task` when none was given.
    Otherwise it re-arms at the open wait's
    deadline, or one *timeout* ahead when no wait is open.  A *timeout*
    of 0 arms nothing.

    A :class:`HttpConnection` keeps one to reap idle clients, passing
    *on_expire* (closing its transport) in place of the task cancel; a
    :class:`~repro.proxy.client.ClientDriver` keeps one to bound each
    fetch.  Either way a request costs a few attribute stores instead of
    the task and timer of an ``asyncio.wait_for``.
    """

    __slots__ = (
        "since", "task", "expired", "loop", "_timeout", "_timer", "_on_expire"
    )

    def __init__(
        self,
        timeout: float,
        on_expire: Optional[Callable[[], object]] = None,
    ) -> None:
        #: Loop time the open wait began; ``None`` while none is open.
        self.since: Optional[float] = None
        #: The task an expired wait cancels (the one that created it,
        #: unless the owner rebinds it).
        self.task = asyncio.current_task()
        #: Set once a wait has expired.
        self.expired = False
        self.loop = asyncio.get_running_loop()
        self._timeout = timeout
        self._on_expire = on_expire
        self._timer = (
            self.loop.call_later(timeout, self._fire) if timeout else None
        )

    def _fire(self) -> None:
        now = self.loop.time()
        deadline = (now if self.since is None else self.since) + self._timeout
        if deadline > now:
            self._timer = self.loop.call_at(deadline, self._fire)
        elif self._on_expire is not None:
            self.expired = True
            self._on_expire()
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


def parse_request(head: Union[bytes, memoryview]) -> HttpRequest:
    """Parse one GET request head, through its blank line.

    Raises :class:`ProtocolError` on anything else: a head longer than
    :data:`MAX_HEAD_BYTES`, one without its closing blank line, another
    method, or a malformed request or header line.
    """
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("HTTP head exceeds size limit")
    text = str(head, "latin-1")
    if not text.endswith("\r\n\r\n"):
        raise ProtocolError("incomplete HTTP head")
    lines = text[:-4].split("\r\n")
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


#: The final answer to a framing error.
_BAD_REQUEST = (
    b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n"
    b"Connection: close\r\n\r\n"
)


#: What a server decides for one request: ``(status, body, headers)``.
Response = Tuple[int, bytes, Dict[str, str]]

#: A server's request handler: the response, or an awaitable of it
#: when the answer must wait (a fetch, a delay).
Handler = Callable[[HttpRequest], Union[Response, Awaitable[Response]]]


class HttpConnection(asyncio.BufferedProtocol):
    """One accepted keep-alive connection, served in place.

    The socket reads into one preallocated buffer of
    :data:`MAX_HEAD_BYTES`.  Each complete head is parsed there
    (:func:`parse_request`) and handed to *serve*; a response it returns
    is written at once, inside the read callback, so an answer that
    needs no ``await`` costs no task, no future and no stream object.
    An awaitable it returns runs as one task, and no further head is
    parsed until that task has answered, so pipelined requests are
    answered in order; bytes that arrive meanwhile stay in the buffer,
    and reading pauses while the buffer is full.

    A response's head travels with the first :data:`DEFAULT_CHUNK_BYTES`
    of its body in one write; later chunks are memoryview slices of the
    body, written while the transport stays below its high-water mark
    (:data:`DEFAULT_MAX_INFLIGHT`) and resumed when it drains, so a slow
    reader bounds its own buffer, not the server's heap.  Each pause
    calls *on_wait*.  No head is parsed while a pause is open.

    The connection ends after a response that says ``Connection:
    close`` (the request asked, or it is the *max_requests*-th; 0: no
    cap), at the client's end of stream once every buffered request is
    answered, after a final ``400`` on a framing error or a head larger
    than the buffer (*on_error* is called first), or when the client
    has been idle for *idle_timeout* seconds (0: never), reaped by one
    :class:`Deadline` with no response.  *connections*, when given,
    holds every open connection, so a stopping server can
    :meth:`close` them.
    """

    def __init__(
        self,
        serve: Handler,
        idle_timeout: float = 0.0,
        max_requests: int = 0,
        connections: Optional[Set["HttpConnection"]] = None,
        on_wait: Optional[Callable[[], object]] = None,
        on_error: Optional[Callable[[], object]] = None,
    ) -> None:
        self._serve = serve
        self._idle_timeout = idle_timeout
        self._max_requests = max_requests
        self._connections = connections
        self._on_wait = on_wait
        self._on_error = on_error
        self._buf = bytearray(MAX_HEAD_BYTES)
        self._view = memoryview(self._buf)
        #: Bytes of :attr:`_buf` holding unparsed input.
        self._used = 0
        self._served = 0
        #: Set while an answer is pending: a task computing it, body
        #: chunks still to write, or a transport over its high-water
        #: mark.  No head is parsed meanwhile.
        self._waiting = False
        self._task: Optional["asyncio.Task[None]"] = None
        #: The response body still being written, and the next offset.
        self._body: Optional[memoryview] = None
        self._offset = 0
        self._keep_alive = True
        self._writable = True
        self._reading = True
        self._eof = False
        self._closed = False

    # -- asyncio callbacks ---------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)
        self._transport.set_write_buffer_limits(high=DEFAULT_MAX_INFLIGHT)
        if self._connections is not None:
            self._connections.add(self)
        self._idle = Deadline(self._idle_timeout, self._transport.close)
        self._idle.since = self._idle.loop.time()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._used :] if self._used else self._view

    def buffer_updated(self, nbytes: int) -> None:
        # The blank line may straddle the previous read.
        start = self._used - 3 if self._used > 3 else 0
        self._used += nbytes
        if not self._waiting:
            self._serve_heads(start)
        elif self._used == len(self._buf):
            self._reading = False
            self._transport.pause_reading()

    def eof_received(self) -> bool:
        self._eof = True
        if not self._waiting:
            self._serve_heads()
        return True  # keep writing: pending answers still go out

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._closed = self._waiting = True
        self._body = None
        self._idle.cancel()
        if self._connections is not None:
            self._connections.discard(self)

    def pause_writing(self) -> None:
        self._writable = False
        if self._on_wait is not None:
            self._on_wait()

    def resume_writing(self) -> None:
        self._writable = True
        if self._waiting and self._task is None and self._write_body():
            self._serve_heads()

    def close(self) -> None:
        """Drop the connection now, unanswered (the server is stopping)."""
        self._idle.cancel()
        self._transport.abort()

    # -- requests ------------------------------------------------------

    def _serve_heads(self, start: int = 0) -> None:
        """Answer every buffered head that can be answered now."""
        buf = self._buf
        while True:
            end = buf.find(b"\r\n\r\n", start, self._used)
            if end < 0:
                break
            end += 4
            try:
                request = parse_request(self._view[:end])
            except ProtocolError:
                self._fail()
                return
            rest = self._used - end
            if rest:
                self._view[:rest] = self._view[end : self._used]
            self._used = rest
            start = 0
            self._idle.since = None
            self._served += 1
            keep_alive = _wants_keep_alive(
                request.version, request.headers
            ) and not (0 < self._max_requests <= self._served)
            answer = self._serve(request)
            if not isinstance(answer, tuple):
                self._waiting = True
                self._task = self._idle.loop.create_task(
                    self._answer_later(answer, keep_alive)
                )
                return
            if not self._respond(answer, keep_alive):
                return
        if self._used == len(buf):
            self._fail()  # the head outgrew the buffer
        elif self._eof:
            if self._used:
                self._fail()  # the stream ended mid-head
            else:
                self._transport.close()
        else:
            if not self._reading:
                self._reading = True
                self._transport.resume_reading()
            if self._idle.since is None:
                self._idle.since = self._idle.loop.time()

    async def _answer_later(
        self, pending: Awaitable[Response], keep_alive: bool
    ) -> None:
        try:
            answer = await pending
        except Exception:
            # The connection is the boundary that must keep serving:
            # record the failure and drop this one client.
            logger.exception("request handler failed")
            self._transport.abort()
            return
        except BaseException:  # cancelled: no answer is coming
            self._transport.abort()
            raise
        finally:
            self._task = None
        if self._closed:
            return
        self._waiting = False
        if self._respond(answer, keep_alive):
            self._serve_heads()

    def _respond(self, answer: Response, keep_alive: bool) -> bool:
        """Write one response; whether the next head may be parsed now."""
        status, body, headers = answer
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        for name, value in headers.items():
            head += f"{name}: {value}\r\n"
        self._transport.write(
            (head + "\r\n").encode("latin-1") + body[:DEFAULT_CHUNK_BYTES]
        )
        if keep_alive and self._writable and len(body) <= DEFAULT_CHUNK_BYTES:
            return True
        self._keep_alive = keep_alive
        if len(body) > DEFAULT_CHUNK_BYTES:
            self._body = memoryview(body)
            self._offset = DEFAULT_CHUNK_BYTES
        return self._write_body()

    def _write_body(self) -> bool:
        """Write body chunks while the transport takes them; whether the
        response is all written and the next head may be parsed."""
        body = self._body
        if body is not None:
            offset = self._offset
            while self._writable and offset < len(body):
                self._transport.write(
                    body[offset : offset + DEFAULT_CHUNK_BYTES]
                )
                offset += DEFAULT_CHUNK_BYTES
            self._offset = offset
            if offset < len(body):
                self._waiting = True
                return False
            self._body = None
        if not self._keep_alive:
            self._waiting = True
            self._transport.close()
            return False
        self._waiting = not self._writable
        return self._writable

    def _fail(self) -> None:
        """Answer a framing error with a final ``400`` and close."""
        if self._on_error is not None:
            self._on_error()
        self._waiting, self._keep_alive = True, False
        self._transport.write(_BAD_REQUEST)
        self._transport.close()


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
