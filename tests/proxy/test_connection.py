"""Both ends of a connection: heads read in place, answers in order.

:class:`~repro.proxy.http.HttpConnection` serves the proxies' and the
origin's sockets.  It parses heads out of one preallocated buffer and
answers a request that needs no ``await`` inside the read callback; an
answer that must wait runs as a task, and no later head is parsed until
it is written.  These tests hold what that must not change: framing
across arbitrary read boundaries, pipelining order behind a slow miss,
a full read buffer, write backpressure, a half-closed client, and no
request body read as the next request.

:class:`~repro.proxy.http.HttpClient`, its twin, reads every response
in the package.  Its properties: any chunking of a response stream
parses into the same responses, arbitrary bytes end in a response or a
protocol or connection error, an unsolicited response is rejected, and
an oversized ``Content-Length`` is refused before a buffer is allocated.
"""

from __future__ import annotations

import asyncio
import socket
import tracemalloc
from dataclasses import replace
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_MAX_INFLIGHT,
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    HttpClient,
    HttpConnection,
    HttpRequest,
    HttpResponse,
    open_http,
    parse_request,
    render_request,
    synth_body,
)
from repro.summaries import SummaryConfig
from tests.proxy.conftest import FakeTransport, trailing

BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)


def get(url: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    """The bytes of one GET head."""
    return "\r\n".join([f"GET {url} {version}", *headers, "", ""]).encode()


def echo(request: HttpRequest):
    """Answer at once with a body of the size the request asks for."""
    size = int(request.header("x-size", "0"))
    return 200, synth_body(request.url, size), {"X-Url": request.url}


async def parse_all(data: bytes, count: int) -> List[HttpResponse]:
    """The responses, in order, that a client which sent *count*
    requests reads from a byte stream and its end, up to the first
    that is incomplete."""
    client = HttpClient()
    transport = FakeTransport(client, takes=True)
    for _ in range(count):
        client.send(get("/"))
    transport.feed(data)
    transport.close()
    responses = []
    for _ in range(count):
        try:
            responses.append(await client.response())
        except ProtocolError:
            pass  # the stream ended first
    return responses


def test_pipelined_heads_sent_one_byte_per_write():
    stream = get("/a", "X-Size: 5") + get("/b", "X-Size: 7")

    async def scenario():
        transport = FakeTransport(HttpConnection(echo), takes=True)
        for byte in stream:
            assert transport.feed(bytes([byte])) == b""
        return await parse_all(transport.data, 2), transport

    responses, transport = asyncio.run(scenario())
    assert [r.body for r in responses] == [
        synth_body("/a", 5),
        synth_body("/b", 7),
    ]
    assert all(r.keep_alive for r in responses)
    assert not transport.closed


def test_burst_larger_than_the_buffer_waits_behind_a_miss():
    warm = [f"http://burst.com/d{i}" for i in range(10)]
    miss = "http://burst.com/miss"
    hits = [warm[i % len(warm)] for i in range(800)]
    burst = get(miss, "X-Size: 300") + b"".join(
        get(url, "X-Size: 200") for url in hits
    )
    assert len(burst) > 2 * MAX_HEAD_BYTES

    async def scenario():
        async with ProxyCluster(
            num_proxies=1,
            mode=ProxyMode.NO_ICP,
            base_config=BASE_CONFIG,
            origin_delay=0.05,
        ) as cluster:
            proxy = cluster.proxies[0]
            driver = cluster.driver_for(0)
            for url in warm:
                await driver.fetch(url, size=200)
            await driver.close()
            transport = FakeTransport(
                HttpConnection(proxy._serve_http), takes=True
            )
            rest = transport.feed(burst)
            # The miss is in flight; the buffer filled behind it.
            paused = (transport.read_pauses, transport.reading, len(rest))
            responses: List[HttpResponse] = []
            for _ in range(500):
                await asyncio.sleep(0.01)
                rest = transport.feed(rest)
                responses = await parse_all(transport.data, 1 + len(hits))
                if len(responses) == 1 + len(hits):
                    break
            return paused, responses, transport

    (pauses, reading, unread), responses, transport = asyncio.run(scenario())
    assert pauses == 1 and not reading and unread > 0
    assert transport.reading
    assert [r.header("x-cache") for r in responses] == ["MISS"] + [
        "HIT"
    ] * len(hits)
    assert [r.body for r in responses] == [synth_body(miss, 300)] + [
        synth_body(url, 200) for url in hits
    ]


def test_slow_reader_is_held_to_the_in_flight_ceiling():
    url, size = "http://slow.com/big", 1 << 20

    async def scenario():
        config = replace(BASE_CONFIG, max_object_size=2 << 20)
        async with ProxyCluster(
            num_proxies=1, mode=ProxyMode.NO_ICP, base_config=config
        ) as cluster:
            proxy = cluster.proxies[0]
            driver = cluster.driver_for(0)
            assert len(await driver.fetch(url, size=size)) == size
            await driver.close()
            for _ in range(200):  # the driver's connection winds down
                if not proxy._connections:
                    break
                await asyncio.sleep(0.01)

            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.connect((proxy.config.host, proxy.http_port))
            _, client = await asyncio.get_running_loop().create_connection(
                HttpClient, sock=sock
            )
            for _ in range(200):
                if proxy._connections:
                    break
                await asyncio.sleep(0.01)
            (connection,) = proxy._connections
            transport = connection._transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            unsent = []
            write = transport.write

            def recording_write(data):
                write(data)
                unsent.append(transport.get_write_buffer_size())

            transport.write = recording_write
            waits = proxy.registry.value("proxy_backpressure_waits_total")
            client.send(render_request(url, {"X-Size": str(size)}))
            pending = client.response()
            while not pending.done():  # at most one read per millisecond
                client._transport.pause_reading()
                await asyncio.sleep(0.001)
                client._transport.resume_reading()
                # The read runs in the iteration after the resume.
                await asyncio.sleep(0)
                await asyncio.sleep(0)
            client.close()
            waits = (
                proxy.registry.value("proxy_backpressure_waits_total") - waits
            )
            return pending.result(), unsent, waits

    response, unsent, waits = asyncio.run(scenario())
    assert response.header("x-cache") == "HIT"
    assert response.body == synth_body(url, size)
    assert waits > 0
    assert max(unsent) <= DEFAULT_MAX_INFLIGHT + DEFAULT_CHUNK_BYTES


def test_half_close_after_a_pipelined_miss_still_gets_the_answer():
    async def scenario():
        async with ProxyCluster(
            num_proxies=1,
            mode=ProxyMode.NO_ICP,
            base_config=BASE_CONFIG,
            origin_delay=0.05,
        ) as cluster:
            proxy = cluster.proxies[0]
            client = await open_http(proxy.config.host, proxy.http_port)
            client.send(get("http://half.com/a", "X-Size: 64"))
            client.send(get("http://half.com/b", "X-Size: 65"))
            # Nothing more comes from this client.
            client._transport.write_eof()
            first = await client.response()
            second = await client.response()
            rest = await trailing(client)
            return first, second, rest

    first, second, rest = asyncio.run(scenario())
    assert (first.status, first.header("x-cache")) == (200, "MISS")
    assert first.body == synth_body("http://half.com/a", 64)
    assert second.body == synth_body("http://half.com/b", 65)
    assert rest == b""


@pytest.mark.parametrize(
    "line",
    [
        "Content-Length : 0",
        "Bad Name: 1",
        "X: a\nTransfer-Encoding: chunked",
    ],
)
def test_a_forbidden_header_line_gets_a_final_400(line):
    seen = []

    def serve(request: HttpRequest):
        seen.append(request.url)
        return echo(request)

    async def scenario():
        transport = FakeTransport(HttpConnection(serve), takes=True)
        transport.feed(get("/a", line) + get("/b"))
        return await parse_all(transport.data, 1), transport

    (response,), transport = asyncio.run(scenario())
    assert seen == []
    assert response.status == 400 and not response.keep_alive
    assert transport.closed


def test_a_request_body_is_not_served_as_the_next_request():
    smuggled = b"GET /smuggled HTTP/1.1\r\n\r\n"
    seen = []

    def serve(request: HttpRequest):
        seen.append(request.url)
        return echo(request)

    async def scenario():
        transport = FakeTransport(HttpConnection(serve), takes=True)
        transport.feed(
            get("/a", f"Content-Length: {len(smuggled)}") + smuggled
        )
        return await parse_all(transport.data, 1), transport

    (response,), transport = asyncio.run(scenario())
    assert seen == []
    assert response.status == 400 and not response.keep_alive
    assert transport.closed


def _answer_chunks(chunks: List[bytes]) -> bytes:
    async def scenario():
        transport = FakeTransport(HttpConnection(echo), takes=True)
        for chunk in chunks:
            transport.feed(chunk)
        return transport.data

    return asyncio.run(scenario())


_heads = st.builds(
    lambda path, size, connection, version: get(
        "/" + path,
        *([f"X-Size: {size}"] if size is not None else []),
        *([f"Connection: {connection}"] if connection else []),
        version=version,
    ),
    st.text(alphabet="abc/?=", max_size=12),
    st.none() | st.integers(0, 3 * DEFAULT_CHUNK_BYTES),
    st.sampled_from(["", "close", "keep-alive"]),
    st.sampled_from(["HTTP/1.1", "HTTP/1.0"]),
)


@settings(max_examples=60, deadline=None)
@given(
    heads=st.lists(_heads, min_size=1, max_size=6),
    cuts=st.lists(st.integers(0, 1 << 16), max_size=12),
)
def test_any_chunking_yields_byte_identical_answers(heads, cuts):
    stream = b"".join(heads)
    points = sorted({cut % (len(stream) + 1) for cut in cuts})
    bounds = [0, *points, len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    assert _answer_chunks(chunks) == _answer_chunks([stream])


_pieces = st.sampled_from(
    [b"GET", b"POST", b" ", b"/x", b"HTTP/1.1", b"\r\n", b"\r\n\r\n",
     b"Host: a", b":", b"\xff", b"\x00"]
)


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=64)
    | st.lists(_pieces, max_size=16).map(b"".join)
    | st.binary(min_size=MAX_HEAD_BYTES - 8, max_size=MAX_HEAD_BYTES + 8)
)
def test_parse_request_returns_a_request_or_raises_protocol_error(data):
    try:
        request = parse_request(data)
    except ProtocolError:
        return
    assert isinstance(request, HttpRequest)


# -- the client ----------------------------------------------------------


def reply(status: int, body: bytes, *headers: str) -> bytes:
    """The bytes of one response."""
    lines = [f"HTTP/1.1 {status} X", f"Content-Length: {len(body)}"]
    return "\r\n".join([*lines, *headers, "", ""]).encode() + body


async def read_chunks(chunks: List[bytes], count: int) -> List[object]:
    """What a client that sent *count* requests makes of *chunks*, one
    read each, then the end of the stream: each response as
    ``(status, headers, body)``, or the error that ended it."""
    client = HttpClient()
    transport = FakeTransport(client, takes=True)
    for _ in range(count):
        client.send(get("/"))
    for chunk in chunks:
        transport.feed(chunk)
    transport.close()
    results: List[object] = []
    for _ in range(count):
        try:
            response = await client.response()
        except (ProtocolError, ConnectionError) as exc:
            results.append(type(exc))
        else:
            results.append(
                (response.status, response.headers, response.body)
            )
    return results


_body_sizes = (
    st.just(0)
    | st.integers(1, 64)
    | st.integers(MAX_HEAD_BYTES - 256, MAX_HEAD_BYTES + 256)
    | st.integers(DEFAULT_CHUNK_BYTES + 1, 3 * DEFAULT_CHUNK_BYTES)
)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(_body_sizes, min_size=1, max_size=4),
    cuts=st.lists(st.integers(0, 1 << 20), max_size=12),
)
def test_any_chunking_of_a_response_stream_parses_the_same(sizes, cuts):
    bodies = [synth_body(f"/r{i}", size) for i, size in enumerate(sizes)]
    stream = b"".join(
        reply(200 + i, body, f"X-N: {i}") for i, body in enumerate(bodies)
    )
    points = sorted({cut % (len(stream) + 1) for cut in cuts})
    bounds = [0, *points, len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    whole = asyncio.run(read_chunks([stream], len(bodies)))
    assert asyncio.run(read_chunks(chunks, len(bodies))) == whole
    assert [body for _, _, body in whole] == bodies
    assert [status for status, _, _ in whole] == [
        200 + i for i in range(len(bodies))
    ]


_response_pieces = st.sampled_from(
    [b"HTTP/1.1", b"HTTP/1.0", b"NOPE", b" ", b"200", b"20", b"OK", b"\r\n",
     b"\r\n\r\n", b"Content-Length: ", b"Content-Length: 5\r\n", b"5",
     b"-1", b"1_0", b"99999999999", b"Transfer-Encoding: x", b":", b"hello",
     b"\xff", b"\x00"]
)


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=64)
    | st.lists(_response_pieces, max_size=16).map(b"".join)
    | st.binary(min_size=MAX_HEAD_BYTES - 8, max_size=MAX_HEAD_BYTES + 8)
)
def test_arbitrary_bytes_give_a_response_or_a_protocol_or_connection_error(
    data,
):
    (result,) = asyncio.run(read_chunks([data], 1))
    assert result in (ProtocolError, ConnectionError) or isinstance(
        result, tuple
    )


def test_an_unsolicited_response_is_rejected():
    answer = reply(200, b"hello")

    async def scenario():
        # Nothing was asked.
        idle = HttpClient()
        idle_transport = FakeTransport(idle, takes=True)
        idle_transport.feed(answer)
        with pytest.raises(ProtocolError, match="unsolicited"):
            idle.send(get("/late"))
        # One request, two responses.
        client = HttpClient()
        transport = FakeTransport(client, takes=True)
        client.send(get("/one"))
        transport.feed(answer + answer)
        first = await client.response()
        with pytest.raises(ProtocolError, match="unsolicited"):
            client.send(get("/two"))
        return idle_transport.closed, first, transport.closed

    idle_closed, first, closed = asyncio.run(scenario())
    assert idle_closed and closed
    assert first.body == b"hello"


def test_an_oversized_content_length_is_refused_before_allocation():
    head = reply(200, b"").replace(
        b"Content-Length: 0", f"Content-Length: {MAX_BODY_BYTES + 1}".encode()
    )

    async def scenario():
        client = HttpClient()
        transport = FakeTransport(client, takes=True)
        client.send(get("/huge"))
        tracemalloc.start()
        try:
            transport.feed(head + b"x" * 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with pytest.raises(ProtocolError, match="exceeds limit"):
            await client.response()
        return peak, transport.closed

    peak, closed = asyncio.run(scenario())
    assert peak < 1 << 20
    assert closed
