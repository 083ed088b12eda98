"""Tests for the origin server."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import ProtocolError
from repro.proxy.http import (
    MAX_BODY_BYTES,
    open_http,
    render_request,
    synth_body,
)
from repro.proxy.origin import OriginServer


def run(coro):
    return asyncio.run(coro)


async def fetch(origin: OriginServer, url: str, headers=None):
    client = await open_http(*origin.address)
    try:
        client.send(render_request(url, headers or {}, keep_alive=False))
        return await client.response()
    finally:
        client.close()


class TestOriginServer:
    def test_serves_requested_size(self):
        async def scenario():
            origin = OriginServer()
            await origin.start()
            try:
                response = await fetch(
                    origin, "http://a.com/x", {"X-Size": "1234"}
                )
            finally:
                await origin.stop()
            return response

        response = run(scenario())
        assert response.status == 200
        assert len(response.body) == 1234
        assert response.body == synth_body("http://a.com/x", 1234)

    def test_default_size_is_deterministic(self):
        async def scenario():
            origin = OriginServer()
            await origin.start()
            try:
                a = await fetch(origin, "http://a.com/x")
                b = await fetch(origin, "http://a.com/x")
            finally:
                await origin.stop()
            return a, b

        a, b = run(scenario())
        assert a.body == b.body
        assert 256 <= len(a.body) < 16384

    def test_fixed_default_size(self):
        async def scenario():
            origin = OriginServer(default_size=99)
            await origin.start()
            try:
                return await fetch(origin, "http://a.com/x")
            finally:
                await origin.stop()

        assert len(run(scenario()).body) == 99

    def test_delay_is_applied(self):
        async def scenario():
            origin = OriginServer(delay=0.15)
            await origin.start()
            try:
                start = time.perf_counter()
                await fetch(origin, "http://a.com/x", {"X-Size": "10"})
                return time.perf_counter() - start
            finally:
                await origin.stop()

        assert run(scenario()) >= 0.14

    def test_bad_request_gets_400(self):
        async def scenario():
            origin = OriginServer()
            await origin.start()
            try:
                client = await open_http(*origin.address)
                client.send(b"BOGUS\r\n\r\n")
                response = await client.response()
                client.close()
                return response, origin.stats.errors
            finally:
                await origin.stop()

        response, errors = run(scenario())
        assert response.status == 400
        assert errors == 1

    def test_stats_accumulate(self):
        async def scenario():
            origin = OriginServer()
            await origin.start()
            try:
                await fetch(origin, "http://a.com/1", {"X-Size": "100"})
                await fetch(origin, "http://a.com/2", {"X-Size": "200"})
            finally:
                await origin.stop()
            return origin.stats

        stats = run(scenario())
        assert stats.requests == 2
        assert stats.bytes_served == 300

    def test_port_property_requires_running(self):
        origin = OriginServer()
        with pytest.raises(ProtocolError):
            _ = origin.port

    def test_malformed_x_size_falls_back(self):
        async def scenario():
            origin = OriginServer(default_size=None)
            await origin.start()
            try:
                return await fetch(
                    origin, "http://a.com/x", {"X-Size": "wat"}
                )
            finally:
                await origin.stop()

        response = run(scenario())
        assert response.status == 200
        assert response.body == b""

    def test_x_size_above_the_body_limit_gets_400(self):
        # X-Size reaches the origin from the client, through the proxy:
        # a size past the body limit is refused before a body is built.
        async def scenario():
            origin = OriginServer()
            await origin.start()
            try:
                return await fetch(
                    origin,
                    "http://a.com/huge",
                    {"X-Size": str(MAX_BODY_BYTES + 1)},
                ), origin.stats
            finally:
                await origin.stop()

        response, stats = run(scenario())
        assert response.status == 400
        assert response.body == b""
        assert stats.errors == 1
        assert (stats.requests, stats.bytes_served) == (0, 0)
