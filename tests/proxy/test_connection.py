"""The server connection: heads read in place, answers in order.

:class:`~repro.proxy.http.HttpConnection` serves the proxies' and the
origin's sockets.  It parses heads out of one preallocated buffer and
answers a request that needs no ``await`` inside the read callback; an
answer that must wait runs as a task, and no later head is parsed until
it is written.  These tests hold what that must not change: framing
across arbitrary read boundaries, pipelining order behind a slow miss,
a full read buffer, write backpressure, and a half-closed client.
"""

from __future__ import annotations

import asyncio
import socket
from dataclasses import replace
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import (
    DEFAULT_CHUNK_BYTES,
    DEFAULT_MAX_INFLIGHT,
    MAX_HEAD_BYTES,
    HttpConnection,
    HttpRequest,
    HttpResponse,
    parse_request,
    read_response,
    synth_body,
    write_request,
)
from repro.summaries import SummaryConfig
from tests.proxy.conftest import FakeTransport

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


async def parse_all(data: bytes) -> List[HttpResponse]:
    """Every response in a byte stream, in order."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    responses = []
    while not reader.at_eof():
        responses.append(await read_response(reader))
    return responses


def test_pipelined_heads_sent_one_byte_per_write():
    stream = get("/a", "X-Size: 5") + get("/b", "X-Size: 7")

    async def scenario():
        transport = FakeTransport(HttpConnection(echo), takes=True)
        for byte in stream:
            assert transport.feed(bytes([byte])) == b""
        return await parse_all(transport.data), transport

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
                responses = await parse_all(transport.data)
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
            reader, writer = await asyncio.open_connection(sock=sock)
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
            write_request(writer, url, {"X-Size": str(size)}, keep_alive=True)
            await writer.drain()
            received = b""
            while len(received) < received.find(b"\r\n\r\n") + 4 + size:
                received += await reader.read(16 * 1024)
                await asyncio.sleep(0.001)
            writer.close()
            waits = (
                proxy.registry.value("proxy_backpressure_waits_total") - waits
            )
            return await parse_all(received), unsent, waits

    (response,), unsent, waits = asyncio.run(scenario())
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
            reader, writer = await asyncio.open_connection(
                proxy.config.host, proxy.http_port
            )
            writer.write(
                get("http://half.com/a", "X-Size: 64")
                + get("http://half.com/b", "X-Size: 65")
            )
            writer.write_eof()  # nothing more comes from this client
            first = await read_response(reader)
            second = await read_response(reader)
            trailing = await reader.read(1)
            writer.close()
            return first, second, trailing

    first, second, trailing = asyncio.run(scenario())
    assert (first.status, first.header("x-cache")) == (200, "MISS")
    assert first.body == synth_body("http://half.com/a", 64)
    assert second.body == synth_body("http://half.com/b", 65)
    assert trailing == b""


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
