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
from typing import Awaitable, Optional, Tuple, Union

from repro.errors import ProtocolError
from repro.obs.spans import TRACE_HEADER
from repro.proxy.http import (
    MAX_BODY_BYTES,
    HttpConnection,
    HttpRequest,
    Response,
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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: HttpConnection(self._serve, on_error=self._count_error),
            self.host,
            self._requested_port,
        )

    async def stop(self) -> None:
        """Stop serving and release the socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _count_error(self) -> None:
        self.stats.errors += 1

    def _body_size(self, url: str, header_size: str) -> int:
        """The body size a request asks for.

        ``X-Size`` comes from the client through the proxy, so a size
        above :data:`~repro.proxy.http.MAX_BODY_BYTES` is refused with a
        :class:`ProtocolError` before any body is built.
        """
        if header_size:
            try:
                size = max(0, int(header_size))
            except ValueError:
                return 0
            if size > MAX_BODY_BYTES:
                raise ProtocolError(
                    f"X-Size {size} exceeds limit {MAX_BODY_BYTES}"
                )
            return size
        if self.default_size is not None:
            return self.default_size
        digest = hashlib.md5(url.encode("utf-8")).digest()
        return 256 + int.from_bytes(digest[:2], "big") % (16384 - 256)

    def _serve(
        self, request: HttpRequest
    ) -> Union[Response, Awaitable[Response]]:
        """Answer one request: at once, or after :attr:`delay`.

        Proxies pool their origin connections, so the origin honors
        keep-alive and streams bodies with backpressure just like the
        proxies' client-facing connections.  An ``X-Size`` above the
        body limit is answered ``400`` and counted in ``errors``.
        """
        try:
            size = self._body_size(request.url, request.header("x-size"))
        except ProtocolError:
            self._count_error()
            return 400, b"", {}
        if self.delay > 0:
            return self._delayed(request, size)
        return self._reply(request, size)

    async def _delayed(self, request: HttpRequest, size: int) -> Response:
        await asyncio.sleep(self.delay)
        return self._reply(request, size)

    def _reply(self, request: HttpRequest, size: int) -> Response:
        body = synth_body(request.url, size)
        self.stats.requests += 1
        self.stats.bytes_served += len(body)
        headers = {"X-Origin": "1"}
        trace = request.header(TRACE_HEADER)
        if trace:
            # Echo the proxy's trace context so the fetch span can be
            # matched to this served request.
            headers[TRACE_HEADER] = trace
        return 200, body, headers
