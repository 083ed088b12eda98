"""Tests for the prototype's HTTP subset."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.errors import ProtocolError
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.http import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    READ_BYTES,
    HttpClient,
    HttpConnection,
    parse_content_length,
    parse_request,
    parse_response,
    render_request,
    synth_body,
)
from repro.summaries import SummaryConfig
from tests.proxy.conftest import FakeTransport

#: One request asking the connection to close after its answer.
CLOSING_GET = b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"


def serve(answer, data=CLOSING_GET, **transport_options):
    """Feed *data* to a connection answering every request *answer*;
    returns ``(transport, waits)``, *waits* the pauses it counted."""
    waits = []

    async def scenario():
        connection = HttpConnection(
            lambda request: answer, on_wait=lambda: waits.append(1)
        )
        transport = FakeTransport(connection, **transport_options)
        transport.feed(data)
        return transport

    return asyncio.run(scenario()), len(waits)


def render(status, body=b"", headers=None) -> bytes:
    """The bytes a connection writes for one response."""
    transport, _ = serve((status, body, headers or {}), takes=True)
    return transport.data


def read(data: bytes):
    """The response a client reads from *data*, then the end of stream,
    after sending one request."""

    async def scenario():
        client = HttpClient()
        transport = FakeTransport(client, takes=True)
        client.send(render_request("/x"))
        transport.feed(data)
        transport.close()
        return await client.response()

    return asyncio.run(scenario())


class TestRequests:
    def test_write_read_roundtrip(self):
        request = parse_request(
            render_request(
                "http://a.com/x",
                headers={"X-Size": "123", "X-Only-If-Cached": "1"},
            )
        )
        assert request.url == "http://a.com/x"
        assert request.header("x-size") == "123"
        assert request.header("X-ONLY-IF-CACHED") == "1"
        assert request.header("missing", "dflt") == "dflt"

    def test_rejects_post(self):
        data = b"POST /x HTTP/1.0\r\n\r\n"
        with pytest.raises(ProtocolError, match="request line"):
            parse_request(data)

    def test_rejects_truncated(self):
        with pytest.raises(ProtocolError):
            parse_request(b"GET /x HTTP/1.0\r\n")

    def test_rejects_malformed_header(self):
        data = b"GET /x HTTP/1.0\r\nbadheader\r\n\r\n"
        with pytest.raises(ProtocolError, match="header"):
            parse_request(data)


class TestResponses:
    def test_write_read_roundtrip(self):
        data = render(200, b"hello", headers={"X-Cache": "HIT"})
        response = read(data)
        assert response.status == 200
        assert response.body == b"hello"
        assert response.header("x-cache") == "HIT"
        assert response.header("content-length") == "5"

    def test_empty_body(self):
        response = read(render(504))
        assert response.status == 504
        assert response.body == b""

    def test_unknown_status_gets_reason(self):
        assert b"418 Unknown" in render(418)

    def test_rejects_bad_status_line(self):
        with pytest.raises(ProtocolError, match="status"):
            read(b"NOPE\r\n\r\n")

    def test_rejects_bad_content_length(self):
        data = b"HTTP/1.0 200 OK\r\nContent-Length: x\r\n\r\n"
        with pytest.raises(ProtocolError, match="Content-Length"):
            read(data)

    def test_rejects_non_numeric_status(self):
        with pytest.raises(ProtocolError):
            read(b"HTTP/1.0 abc OK\r\n\r\n")


class TestFramingValidation:
    """Satellite of the keep-alive rework: strict body framing."""

    def test_negative_content_length_rejected(self):
        with pytest.raises(ProtocolError, match="negative"):
            parse_content_length({"content-length": "-5"})

    def test_non_numeric_content_length_rejected(self):
        for bad in ("x", "1e3", "0x10", " ", "+-1", "1_0", "+5"):
            with pytest.raises(ProtocolError, match="Content-Length"):
                parse_content_length({"content-length": bad})

    def test_oversized_content_length_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds limit"):
            parse_content_length(
                {"content-length": str(MAX_BODY_BYTES + 1)}
            )

    def test_absent_content_length_is_zero(self):
        assert parse_content_length({}) == 0

    def test_response_with_negative_length_rejected(self):
        data = b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"
        with pytest.raises(ProtocolError, match="negative"):
            read(data)

    def test_oversized_head_rejected(self):
        # Above MAX_HEAD_BYTES but below the 64 KiB stream limit, so
        # the explicit head cap (not the stream limit) fires.
        padding = b"a" * (MAX_HEAD_BYTES + 1024)
        data = b"GET /x HTTP/1.1\r\nX-Pad: " + padding + b"\r\n\r\n"
        with pytest.raises(ProtocolError, match="size limit"):
            parse_request(data)

    def test_body_truncation_rejected(self):
        data = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
        with pytest.raises(ProtocolError, match="mid-body"):
            read(data)

    def test_request_with_differing_content_lengths_rejected(self):
        data = (
            b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n"
            b"Content-Length: 5\r\n\r\n"
        )
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse_request(data)

    def test_response_with_differing_content_lengths_rejected(self):
        data = (
            b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n"
            b"Content-Length: 50\r\n\r\nhello"
        )
        with pytest.raises(ProtocolError, match="Content-Length"):
            read(data)

    def test_request_with_a_body_rejected(self):
        for header in ("Content-Length: 3", "Transfer-Encoding: chunked"):
            head = f"GET /x HTTP/1.1\r\n{header}\r\n\r\n".encode()
            with pytest.raises(ProtocolError, match="bodies"):
                parse_request(head)
        empty = b"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        assert parse_request(empty).url == "/x"

    def test_status_code_must_be_three_digits(self):
        for code in (b"20", b"2000", b"+20", b"2_0"):
            with pytest.raises(ProtocolError, match="status code"):
                read(b"HTTP/1.1 " + code + b" OK\r\n\r\n")


#: Header lines RFC 9112 forbids: a field name is an RFC 9110 token (no
#: whitespace, nothing else outside ``tchar``), and a field value holds
#: no CR, LF or NUL.
FORBIDDEN_FIELD_LINES = [
    b"Content-Length : 0",  # whitespace before the colon
    b"Bad Name: 1",  # whitespace inside the name
    b"X: a\nTransfer-Encoding: chunked",  # a bare LF smuggles a field
    b" X: 1",  # a folded (obs-fold) line
    b": no-name",
    b"X(y): 1",
    b"X: a\rb",
    b"X: a\x00b",
]


class TestHeaderFieldGrammar:
    @pytest.mark.parametrize("line", FORBIDDEN_FIELD_LINES)
    def test_request_rejects_forbidden_line(self, line):
        with pytest.raises(ProtocolError, match="header line"):
            parse_request(b"GET /x HTTP/1.1\r\n" + line + b"\r\n\r\n")

    @pytest.mark.parametrize("line", FORBIDDEN_FIELD_LINES)
    def test_response_rejects_forbidden_line(self, line):
        with pytest.raises(ProtocolError, match="header line"):
            parse_response(b"HTTP/1.1 200 OK\r\n" + line + b"\r\n\r\n")

    def test_client_rejects_forbidden_response_line(self):
        with pytest.raises(ProtocolError, match="header line"):
            read(b"HTTP/1.1 200 OK\r\nBad Name: 1\r\n\r\n")

    def test_token_names_and_padded_values_parse(self):
        head = (
            b"GET /x HTTP/1.1\r\nX-A.b_c~!: \t v  a \t\r\n"
            b"Empty:\r\n\r\n"
        )
        assert parse_request(head).headers == {
            "x-a.b_c~!": "v  a",
            "empty": "",
        }


class TestKeepAliveSemantics:
    def test_http11_defaults_to_keep_alive(self):
        request = parse_request(b"GET /x HTTP/1.1\r\n\r\n")
        assert request.keep_alive

    def test_http11_close_honoured(self):
        request = parse_request(
            b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        request = parse_request(b"GET /x HTTP/1.0\r\n\r\n")
        assert not request.keep_alive

    def test_http10_explicit_keep_alive(self):
        request = parse_request(
            b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        )
        assert request.keep_alive

    def test_clean_eof_closes_without_an_answer(self):
        # An empty stream is a finished keep-alive conversation, not an
        # error.
        async def scenario():
            transport = FakeTransport(HttpConnection(lambda request: None))
            transport.protocol.eof_received()
            return transport

        transport = asyncio.run(scenario())
        assert transport.closed
        assert transport.writes == []

    def test_render_request_emits_connection_header(self):
        assert b"Connection: keep-alive\r\n" in render_request(
            "/x", keep_alive=True
        )
        assert b"Connection: close\r\n" in render_request(
            "/x", keep_alive=False
        )


class TestStreamBody:
    """A connection's write pattern: head and first chunk together, the
    rest in bounded slices under backpressure."""

    @staticmethod
    def send(body, **transport_options):
        transport, waits = serve(
            (200, body, {}), b"GET /x HTTP/1.1\r\n\r\n", **transport_options
        )
        head, sep, sent = transport.data.partition(b"\r\n\r\n")
        assert sep and head.startswith(b"HTTP/1.1 200 OK")
        return transport, waits, sent

    def test_streams_all_bytes_without_backpressure(self):
        body = synth_body("s", 3_200_000)
        transport, waits, sent = self.send(body, takes=True)
        assert sent == body
        assert len(transport.writes) == 49  # ceil(3_200_000 / 65536)
        assert waits == 0
        assert transport.resumes == 0

    def test_drains_when_buffer_exceeds_ceiling(self):
        # The first two writes take the buffer over the ceiling; the
        # peer reads after each, and the third fits.
        body = synth_body("s", 2 * 65536 + 500)

        async def scenario():
            waits = []
            connection = HttpConnection(
                lambda request: (200, body, {}),
                on_wait=lambda: waits.append(1),
            )
            transport = FakeTransport(connection, high=1000)
            transport.feed(b"GET /x HTTP/1.1\r\n\r\n")
            while transport.paused:
                transport.take()
            return transport, len(waits)

        transport, waits = asyncio.run(scenario())
        sent = transport.data.partition(b"\r\n\r\n")[2]
        assert sent == body
        assert waits == 2
        assert transport.resumes == 2

    def test_small_body_is_one_write_with_the_head(self):
        body = synth_body("s", 1024)
        transport, _, sent = self.send(body, takes=True)
        assert len(transport.writes) == 1
        assert transport.writes[0].startswith(b"HTTP/1.1 200 OK\r\n")
        assert sent == body

    def test_large_body_head_rides_the_first_chunk(self):
        body = synth_body("s", 200 * 1024)
        transport, _, sent = self.send(body, takes=True)
        assert len(transport.writes) == 4  # 64 + 64 + 64 + 8 KiB
        first = transport.writes[0]
        assert first.startswith(b"HTTP/1.1 200 OK\r\n")
        assert first.endswith(body[: 64 * 1024])
        assert [len(w) for w in transport.writes[1:]] == [65536, 65536, 8192]
        assert sent == body


class TestSynthBody:
    def test_exact_size(self):
        assert len(synth_body("http://a.com/x", 1000)) == 1000

    def test_deterministic_per_url(self):
        assert synth_body("u", 64) == synth_body("u", 64)
        assert synth_body("u", 64) != synth_body("v", 64)

    def test_zero_and_negative(self):
        assert synth_body("u", 0) == b""
        assert synth_body("u", -5) == b""


class TestBoundedReads:
    """No socket read on the live path asks for more than READ_BYTES.

    asyncio's selector transports ask ``recv`` for 256 KiB, a buffer
    glibc maps fresh on every read.  Every TCP connection reads into
    its own buffer (``recv_into``), and the ICP endpoint caps its
    datagram reads.
    """

    def test_every_read_in_a_cluster_is_bounded(self, monkeypatch):
        asked = []
        recv, recvfrom = socket.socket.recv, socket.socket.recvfrom

        def counting_recv(sock, size, *args):
            asked.append(size)
            return recv(sock, size, *args)

        def counting_recvfrom(sock, size, *args):
            asked.append(size)
            return recvfrom(sock, size, *args)

        monkeypatch.setattr(socket.socket, "recv", counting_recv)
        monkeypatch.setattr(socket.socket, "recvfrom", counting_recvfrom)

        async def scenario():
            config = ProxyConfig(
                summary=SummaryConfig(kind="bloom", load_factor=8),
                expected_doc_size=1024,
            )
            async with ProxyCluster(
                num_proxies=2, mode=ProxyMode.SC_ICP, base_config=config
            ) as cluster:
                wrong = 0
                for index in (0, 1):
                    driver = cluster.driver_for(index)
                    for i in range(12):
                        url, size = f"http://big.com/d{i}", 1000 + i * 20_000
                        body = await driver.fetch(url, size=size)
                        wrong += body != synth_body(url, size)
                    await driver.close()
                    await asyncio.sleep(0.05)  # let DIRUPDATEs land
                return wrong, cluster.proxies[1].stats.remote_hits

        wrong, remote_hits = asyncio.run(scenario())
        assert wrong == 0 and remote_hits > 0
        assert asked and max(asked) == READ_BYTES
