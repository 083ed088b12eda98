"""The HTTP/1.1-subset data plane the prototype speaks.

The proxies, the origin server, and the client drivers share this
module.  It implements the keep-alive streaming subset the benchmark
data plane needs (GETs only, ``Content-Length``-framed bodies), with
one framing in both directions:

- **Heads read in place.**  Servers (proxies and the origin) accept
  connections through :class:`HttpConnection`, an
  :class:`asyncio.BufferedProtocol`: the socket reads into one
  preallocated buffer of :data:`MAX_HEAD_BYTES`, the head's blank line
  is found in place, and :func:`parse_request` parses it synchronously.
  An answer that needs no ``await`` (a proxy's local hit, say) is
  written from inside the read callback, with no task and no stream
  object; only an answer that must wait becomes a task.
- **Responses read the same way.**  Every client connection (a
  proxy's fetch from a peer or the origin, and the load generator's
  driver) is an :class:`HttpClient`, the twin of
  :class:`HttpConnection` over the same head scan: a response head is
  parsed in place by :func:`parse_response`, and its body is read
  straight into one buffer sized from ``Content-Length``.
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
  (:data:`DEFAULT_MAX_INFLIGHT`) and resumed when it drains; a client
  allocates a body's buffer only after its ``Content-Length`` has
  passed :data:`MAX_BODY_BYTES`, and no stream object reads anything
  (lint rule SC001 flags an unbounded stream read in the whole proxy
  package).
- **Strict framing validation.**  A ``Content-Length`` that is not
  ASCII digits or is too large, two that differ, a request with a
  body, a status code that is not three digits, and an oversized head
  raise :class:`~repro.errors.ProtocolError`.  Servers answer it with
  a clean ``400`` -- never a traceback -- and a client fails the
  waiting request and closes the connection.

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
import re
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Awaitable,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    Union,
    cast,
)

from repro.errors import ProtocolError

logger = logging.getLogger(__name__)

#: Upper bound on a request/response head, to bound memory per connection.
MAX_HEAD_BYTES = 16 * 1024

#: Upper bound on a ``Content-Length`` a proxy will accept from a peer
#: or origin (well above ``max_object_size``; a hard sanity ceiling so a
#: corrupt header cannot make a client allocate gigabytes).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The chunk a server writes a response body in.
DEFAULT_CHUNK_BYTES = 64 * 1024

#: Each server transport's high-water mark: a response stops writing
#: body chunks while more than this sits unsent.
DEFAULT_MAX_INFLIGHT = 256 * 1024

#: The most one datagram read asks for.  asyncio's selector transports
#: ask for 256 KiB, which glibc's malloc serves above its default
#: 128 KiB mmap threshold: every read maps fresh pages, faults them in,
#: and shrinks the mapping to the bytes received.  64 KiB comes from the
#: heap, and no UDP datagram is larger.  (TCP reads go into each
#: connection's own buffer and allocate nothing.)
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
    """Cap each socket read on *transport* (the ICP endpoint) at
    :data:`READ_BYTES`.

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


class _Message:
    """What a parsed request and a parsed response share."""

    headers: Dict[str, str]
    version: str

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the sender keeps the connection open.  HTTP/1.1 is
        persistent unless ``close``; HTTP/1.0 only with an explicit
        ``Connection: keep-alive``."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.1":
            return connection != "close"
        return connection == "keep-alive"


@dataclass
class HttpRequest(_Message):
    """A parsed GET request."""

    url: str
    headers: Dict[str, str] = field(default_factory=dict)
    version: str = "HTTP/1.1"


@dataclass
class HttpResponse(_Message):
    """A parsed response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"


def _head_lines(head: Union[bytes, memoryview]) -> List[str]:
    """A head's lines, without the blank line that must end it."""
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("HTTP head exceeds size limit")
    text = str(head, "latin-1")
    if not text.endswith("\r\n\r\n"):
        raise ProtocolError("incomplete HTTP head")
    return text[:-4].split("\r\n")


#: One header field line (RFC 9112 §5): a field name that is an RFC 9110
#: token, so no whitespace before the colon, then a value free of CR, LF
#: and NUL.  A head is split on CRLF, so a bare CR or LF left inside a
#: line would otherwise smuggle a second field past the parser.
_FIELD_LINE = re.compile(
    r"([!#$%&'*+\-.^_`|~0-9A-Za-z]+):([^\r\n\x00]*)"
).fullmatch


def _parse_headers(lines: Iterable[str]) -> Dict[str, str]:
    headers: Dict[str, str] = {}
    for line in lines:
        if not line:
            continue
        field = _FIELD_LINE(line)
        if field is None:
            raise ProtocolError(f"malformed header line {line!r}")
        name, value = field[1].lower(), field[2].strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise ProtocolError("conflicting Content-Length headers")
        headers[name] = value
    return headers


def parse_content_length(
    headers: Dict[str, str], limit: int = MAX_BODY_BYTES
) -> int:
    """Validated body length from *headers* (0 when absent).

    Accepts ASCII digits only, so ``+5``, ``1_0`` and ``-1`` (all of
    which ``int()`` takes) are rejected with a :class:`ProtocolError`,
    as is a value above *limit*.
    """
    text = headers.get("content-length", "0")
    if not (text.isdigit() and text.isascii()):
        kind = "negative" if text.startswith("-") else "malformed"
        raise ProtocolError(f"{kind} Content-Length {text!r}")
    length = int(text)
    if length > limit:
        raise ProtocolError(
            f"Content-Length {length} exceeds limit {limit}"
        )
    return length


def parse_request(head: Union[bytes, memoryview]) -> HttpRequest:
    """Parse one GET request head, through its blank line.

    Raises :class:`ProtocolError` on anything else: a head longer than
    :data:`MAX_HEAD_BYTES`, one without its closing blank line, another
    method, a malformed request or header line, or a request with a
    body (a non-zero ``Content-Length`` or any ``Transfer-Encoding``),
    whose bytes would otherwise be read as the next request.
    """
    lines = _head_lines(head)
    parts = lines[0].split(" ")
    if len(parts) != 3 or parts[0] != "GET":
        raise ProtocolError(f"unsupported request line {lines[0]!r}")
    headers = _parse_headers(lines[1:])
    if "transfer-encoding" in headers or parse_content_length(headers):
        raise ProtocolError("request bodies are not supported")
    return HttpRequest(url=parts[1], headers=headers, version=parts[2])


def parse_response(head: Union[bytes, memoryview]) -> HttpResponse:
    """Parse one response head, through its blank line; the body is
    left empty, for the caller to frame with :func:`parse_content_length`.

    Raises :class:`ProtocolError` on a head longer than
    :data:`MAX_HEAD_BYTES`, one without its closing blank line, a status
    line other than ``HTTP/<version> <three digits> [reason]``, a
    malformed header line, or a ``Transfer-Encoding``.
    """
    lines = _head_lines(head)
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(f"malformed status line {lines[0]!r}")
    code = parts[1]
    if len(code) != 3 or not (code.isdigit() and code.isascii()):
        raise ProtocolError(f"malformed status code {code!r}")
    headers = _parse_headers(lines[1:])
    if "transfer-encoding" in headers:
        raise ProtocolError("Transfer-Encoding is not supported")
    return HttpResponse(int(code), headers, version=parts[0])


def render_request(
    url: str,
    headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """The bytes of one GET request.

    Always carries an explicit ``Connection`` header, so HTTP/1.0-era
    readers and the connection pool agree on the connection's fate.
    """
    head = (
        f"GET {url} HTTP/1.1\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
    )
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    return (head + "\r\n").encode("latin-1")


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


#: A parsed head: what :meth:`_HeadReader._take_head`'s parser returns.
_Head = TypeVar("_Head", HttpRequest, HttpResponse)


class _HeadReader(asyncio.BufferedProtocol):
    """Heads read in place: the half both directions share.

    The socket reads into one preallocated buffer of
    :data:`MAX_HEAD_BYTES`.  :meth:`_take_head` finds a head's blank
    line there (it may straddle two reads), parses the head, and moves
    the bytes after it (a body, or the next pipelined message) to the
    front of the buffer.
    """

    def __init__(self) -> None:
        self._buf = bytearray(MAX_HEAD_BYTES)
        self._view = memoryview(self._buf)
        #: Bytes of :attr:`_buf` holding unparsed input.
        self._used = 0

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._used :] if self._used else self._view

    def buffer_updated(self, nbytes: int) -> None:
        # The blank line may straddle the previous read.
        start = self._used - 3 if self._used > 3 else 0
        self._used += nbytes
        self._received(start)

    def _received(self, start: int) -> None:
        """New bytes are in the buffer; a head's blank line cannot
        begin before *start*."""
        raise NotImplementedError

    def _take_head(
        self, parse: Callable[[memoryview], _Head], start: int = 0
    ) -> Optional[_Head]:
        """The buffer's first head, parsed by *parse* and consumed;
        ``None`` while it is incomplete.  Raises :class:`ProtocolError`
        from *parse*, or when an unfinished head fills the buffer."""
        end = self._buf.find(b"\r\n\r\n", start, self._used)
        if end < 0:
            if self._used == len(self._buf):
                raise ProtocolError("HTTP head exceeds size limit")
            return None
        head = parse(self._view[: end + 4])
        self._consume(end + 4)
        return head

    def _consume(self, nbytes: int) -> None:
        """Drop the buffer's first *nbytes*."""
        rest = self._used - nbytes
        if rest:
            self._view[:rest] = self._view[nbytes : self._used]
        self._used = rest


class HttpConnection(_HeadReader):
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
    close`` (the request asked), at the client's end of stream once every buffered request is
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
        connections: Optional[Set["HttpConnection"]] = None,
        on_wait: Optional[Callable[[], object]] = None,
        on_error: Optional[Callable[[], object]] = None,
    ) -> None:
        self._serve = serve
        self._idle_timeout = idle_timeout
        self._connections = connections
        self._on_wait = on_wait
        self._on_error = on_error
        super().__init__()
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

    def _received(self, start: int) -> None:
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
        while True:
            try:
                request = self._take_head(parse_request, start)
            except ProtocolError:  # malformed, or larger than the buffer
                self._fail()
                return
            if request is None:
                break
            start = 0
            self._idle.since = None
            answer = self._serve(request)
            if not isinstance(answer, tuple):
                self._waiting = True
                self._task = self._idle.loop.create_task(
                    self._answer_later(answer, request.keep_alive)
                )
                return
            if not self._respond(answer, request.keep_alive):
                return
        if self._eof:
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


class HttpClient(_HeadReader):
    """One client connection: the twin of :class:`HttpConnection`.

    :meth:`send` writes a request, and :meth:`response` hands out the
    futures of the responses in request order, so requests may be
    pipelined.  Each response head is parsed in place
    (:func:`parse_response`).  A body that arrived with its head is
    sliced from the buffer; a longer one is read straight into one
    buffer of its ``Content-Length``, which is checked against
    :data:`MAX_BODY_BYTES` before that buffer is allocated.

    A malformed head, a response nobody asked for, or the end of the
    stream mid-response fails every waiting request with
    :class:`ProtocolError` and closes the connection.  Sending on a
    closed connection raises the reason it closed
    (:class:`ConnectionError` after a clean end of stream).
    :func:`open_http` opens one.
    """

    def __init__(self) -> None:
        super().__init__()
        self._loop = asyncio.get_running_loop()
        #: Sent requests not yet answered, oldest first.
        self._waiters: Deque["asyncio.Future[HttpResponse]"] = deque()
        #: The same futures, until :meth:`response` hands each out.
        self._unclaimed: Deque["asyncio.Future[HttpResponse]"] = deque()
        #: A response whose head is read and whose body is arriving in
        #: :attr:`_body`, :attr:`_filled` bytes so far.
        self._partial: Optional[HttpResponse] = None
        self._body = memoryview(b"")
        self._filled = 0
        #: Why the connection is unusable, once it is.
        self._lost: Optional[Exception] = None
        #: Resolved when the connection is lost.
        self.closed: "asyncio.Future[None]" = self._loop.create_future()
        #: ``perf_counter`` time of the last release into a pool.
        self.idle_since = 0.0

    @property
    def usable(self) -> bool:
        """Whether a request sent now can be answered."""
        return self._lost is None and not self._transport.is_closing()

    def send(self, request: bytes) -> None:
        """Write one request (:func:`render_request`); its response is
        the next :meth:`response`.  Raises the reason the connection
        closed when it has."""
        if not self.usable:
            raise self._lost or ConnectionError("connection closed")
        waiter = self._loop.create_future()
        self._waiters.append(waiter)
        self._unclaimed.append(waiter)
        self._transport.write(request)

    def response(self) -> "asyncio.Future[HttpResponse]":
        """The next response not yet handed out, in request order."""
        return self._unclaimed.popleft()

    def close(self) -> None:
        """Close the connection; a pending request fails."""
        self._transport.close()

    # -- asyncio callbacks ---------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = cast(asyncio.Transport, transport)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._partial is not None:
            return self._body[self._filled :]
        return super().get_buffer(sizehint)

    def buffer_updated(self, nbytes: int) -> None:
        if self._partial is None:
            super().buffer_updated(nbytes)
            return
        self._filled += nbytes
        if self._filled == len(self._body):
            response, self._partial = self._partial, None
            response.body = bytes(self._body)
            self._body = memoryview(b"")
            self._deliver(response)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._partial is not None:
            exc = ProtocolError(
                "connection closed mid-body "
                f"({self._filled}/{len(self._body)} bytes)"
            )
        elif self._waiters:
            exc = exc or ProtocolError("connection closed mid-response")
        self._fail(exc or ConnectionError("connection closed"))
        if not self.closed.done():
            self.closed.set_result(None)

    # -- responses -----------------------------------------------------

    def _received(self, start: int) -> None:
        while self._used:
            if not self._waiters:
                self._fail(ProtocolError("unsolicited response"))
                return
            try:
                response = self._take_head(parse_response, start)
                if response is None:
                    return
                length = parse_content_length(response.headers)
            except ProtocolError as exc:
                self._fail(exc)
                return
            start = 0
            if length > self._used:  # read the rest in place
                self._body = memoryview(bytearray(length))
                self._body[: self._used] = self._view[: self._used]
                self._partial, self._filled, self._used = (
                    response, self._used, 0
                )
                return
            if length:
                response.body = bytes(self._view[:length])
                self._consume(length)
            self._deliver(response)

    def _deliver(self, response: HttpResponse) -> None:
        waiter = self._waiters.popleft()
        if not waiter.done():  # its caller may have been cancelled
            waiter.set_result(response)

    def _fail(self, exc: Exception) -> None:
        """Fail every waiting request with *exc*, and close."""
        if self._lost is None:
            self._lost = exc
        self._partial, self._body = None, memoryview(b"")
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_exception(exc)
        self._transport.abort()


async def open_http(host: str, port: int) -> HttpClient:
    """A new :class:`HttpClient` connected to *host*:*port*."""
    loop = asyncio.get_running_loop()
    _, client = await loop.create_connection(HttpClient, host, port)
    return client


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
