"""The origin HTTP server of the benchmark experiments.

The paper's benchmark servers delay every reply: "the process waits for
one second before sending the reply to simulate the network latency."
:class:`OriginServer` reproduces that with a configurable delay, and
serves synthetic bodies whose size comes from the request's ``X-Size``
header (trace replay) or from a deterministic URL hash (benchmark mode).
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ProtocolError
from repro.obs.spans import TRACE_HEADER
from repro.proxy.http import (
    bound_reads,
    read_request,
    send_response,
    synth_body,
)


@dataclass
class OriginStats:
    """Counters an origin server accumulates."""

    requests: int = 0
    bytes_served: int = 0
    errors: int = 0


class OriginServer:
    """A latency-injecting origin server for proxy experiments.

    Parameters
    ----------
    host / port:
        Bind address; port 0 lets the OS choose (read :attr:`port` after
        :meth:`start`).
    delay:
        Seconds to sleep before replying (the paper uses 1.0; tests use
        much smaller values).
    default_size:
        Body size when the request carries no ``X-Size`` header; if
        ``None``, a deterministic pseudo-size in [256, 16384) derived
        from the URL is used.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        delay: float = 0.0,
        default_size: Optional[int] = None,
    ) -> None:
        self.host = host
        self._requested_port = port
        self.delay = delay
        self.default_size = default_size
        self.stats = OriginStats()
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None:
            raise ProtocolError("origin server is not running")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` of the running server."""
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind and start serving."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )

    async def stop(self) -> None:
        """Stop serving and release the socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _body_size(self, url: str, header_size: str) -> int:
        if header_size:
            try:
                return max(0, int(header_size))
            except ValueError:
                return 0
        if self.default_size is not None:
            return self.default_size
        digest = hashlib.md5(url.encode("utf-8")).digest()
        return 256 + int.from_bytes(digest[:2], "big") % (16384 - 256)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve a keep-alive request loop on one connection.

        Proxies pool their origin connections, so the origin honors
        keep-alive and streams bodies with backpressure just like the
        proxies' client-facing loop.
        """
        bound_reads(writer.transport)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError:
                    self.stats.errors += 1
                    await send_response(writer, 400)
                    await writer.drain()
                    break
                if request is None:
                    break  # client done with the connection
                if self.delay > 0:
                    await asyncio.sleep(self.delay)
                size = self._body_size(request.url, request.header("x-size"))
                body = synth_body(request.url, size)
                self.stats.requests += 1
                self.stats.bytes_served += len(body)
                keep_alive = request.keep_alive
                headers = {"X-Origin": "1"}
                trace = request.header(TRACE_HEADER)
                if trace:
                    # Echo the proxy's trace context so the fetch span
                    # can be matched to this served request.
                    headers[TRACE_HEADER] = trace
                await send_response(writer, 200, body, headers, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
