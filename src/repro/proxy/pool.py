"""Keep-alive connection pooling, and the one GET exchange.

A miss used to cost a fresh TCP connection to the origin (or the
holding peer) every time; under load the connect/teardown dominates the
fetch.  :class:`ConnectionPool` keeps bounded per-``(host, port)`` idle
lists of keep-alive :class:`~repro.proxy.http.HttpClient` connections
and hands them back out after a health check, so sequential misses to
the same upstream ride one socket.

:meth:`ConnectionPool.get` is the only place in the package that
exchanges a request for a response: the proxy's peer and origin
fetches call it, and so does
:class:`~repro.proxy.client.ClientDriver`, through a pool of one
connection.  After each exchange the connection goes back to the idle
list when the response said ``keep-alive``, and is closed otherwise.

Reuse is *checked, not guaranteed*: an idle upstream may close its end
between exchanges, so an exchange that fails on a reused connection is
retried on the next one, and finally on a fresh socket, before the
error reaches the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.proxy.http import (
    HttpClient,
    HttpResponse,
    open_http,
    render_request,
)


@dataclass
class PoolStats:
    """Counters the pool accumulates (mirrored into the obs registry)."""

    created: int = 0
    reused: int = 0
    discarded: int = 0
    expired: int = 0


class ConnectionPool:
    """Bounded idle-connection pool keyed by ``(host, port)``.

    Parameters
    ----------
    max_idle_per_host:
        Idle connections kept per upstream; 0 disables pooling entirely
        (every exchange opens a connection and closes it after).
    idle_timeout:
        Seconds an idle connection stays eligible (0: no limit); stale
        entries are closed lazily on the next exchange with that
        upstream.
    on_reuse:
        Optional zero-argument hook (the proxy wires it to its
        ``proxy_connections_reused_total`` counter).
    """

    def __init__(
        self,
        max_idle_per_host: int = 8,
        idle_timeout: float = 10.0,
        on_reuse: Optional[Callable[[], None]] = None,
    ) -> None:
        self.max_idle_per_host = max_idle_per_host
        self.idle_timeout = idle_timeout
        self.stats = PoolStats()
        self._idle: Dict[Tuple[str, int], List[HttpClient]] = {}
        self._on_reuse = on_reuse
        self._closed = False

    @property
    def total_idle(self) -> int:
        """Idle connections across all upstreams."""
        return sum(len(conns) for conns in self._idle.values())

    async def get(
        self, host: str, port: int, url: str, headers: Dict[str, str]
    ) -> HttpResponse:
        """GET *url* from *host*:*port* over a pooled connection.

        An exchange that fails on a reused connection moves on to the
        next idle one, then to a fresh socket; each stale connection is
        consumed from the idle list, so the loop ends with a fresh
        socket whose failure (:class:`ConnectionError`,
        :class:`ProtocolError` or :class:`OSError`) is genuine and
        propagates.  A cancelled exchange is half-finished: its
        connection is discarded through the pool's books, never
        stranded between the two.
        """
        # The list stays in the pool for good (clear() empties it in
        # place), so holding it across the awaits below is safe.
        idle = self._idle.setdefault((host, port), [])
        while True:
            client = self._reuse(idle)
            reused = client is not None
            if client is None:
                client = await open_http(host, port)
                self.stats.created += 1
            try:
                client.send(render_request(url, headers))
                response = await client.response()
            except (ConnectionError, ProtocolError, OSError):
                self._discard(client)
                if reused:
                    continue  # stale pooled connection; try the next one
                raise
            except BaseException:
                self._discard(client)
                raise
            self._release(idle, client, response.keep_alive)
            return response

    def _reuse(self, idle: List[HttpClient]) -> Optional[HttpClient]:
        """The newest healthy connection in *idle*; stale ones close."""
        while idle:
            client = idle.pop()
            if client.usable and (
                self.idle_timeout <= 0
                or perf_counter() - client.idle_since <= self.idle_timeout
            ):
                self.stats.reused += 1
                if self._on_reuse is not None:
                    self._on_reuse()
                return client
            client.close()
            self.stats.expired += 1
        return None

    def _release(
        self, idle: List[HttpClient], client: HttpClient, reusable: bool
    ) -> None:
        """Park *client* in *idle*, or close it if it cannot be reused."""
        if (
            not reusable
            or self._closed
            or not client.usable
            or len(idle) >= self.max_idle_per_host
        ):
            self._discard(client)
            return
        client.idle_since = perf_counter()
        idle.append(client)

    def _discard(self, client: HttpClient) -> None:
        client.close()
        self.stats.discarded += 1

    async def clear(self) -> None:
        """Close every idle connection; later exchanges open new ones."""
        clients: List[HttpClient] = []
        for idle in self._idle.values():
            clients += idle
            idle.clear()
        for client in clients:
            client.close()
        for client in clients:
            await client.closed

    async def close(self) -> None:
        """Close every idle connection and refuse further parking."""
        self._closed = True
        await self.clear()
