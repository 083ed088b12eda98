"""Keep-alive connection pooling for origin and peer fetches.

A miss used to cost a fresh TCP connection to the origin (or the
holding peer) every time; under load the connect/teardown dominates the
fetch.  :class:`ConnectionPool` keeps bounded per-``(host, port)`` idle
lists of keep-alive connections and hands them back out after a health
check, so sequential misses to the same upstream ride one socket.

The pool is deliberately transport-dumb: it opens, stores, and closes
``(StreamReader, StreamWriter)`` pairs and leaves all HTTP framing to
the caller.  The caller decides after each exchange whether the
connection is still reusable (the response said ``keep-alive`` and the
body was fully consumed) and either :meth:`~ConnectionPool.release`\\ s
it back or discards it.

Reuse is *checked, not guaranteed*: an idle upstream may close its end
between exchanges, so callers retry a failed exchange once on a fresh
connection before reporting an error (see
``SummaryCacheProxy._fetch``).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.proxy.http import bound_reads


@dataclass
class PoolStats:
    """Counters the pool accumulates (mirrored into the obs registry)."""

    created: int = 0
    reused: int = 0
    discarded: int = 0
    expired: int = 0


@dataclass
class PooledConnection:
    """One reusable upstream connection."""

    host: str
    port: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    #: ``perf_counter`` timestamp of the last release into the pool.
    idle_since: float = 0.0
    #: Number of exchanges served beyond the first.
    reuses: int = 0
    #: True when this acquire was served from the idle list (callers
    #: use it to decide whether a failure warrants a fresh-socket retry).
    was_reused: bool = field(default=False, compare=False)

    def healthy(self, idle_timeout: float) -> bool:
        """Whether the idle connection is still fit to hand out."""
        if self.writer.is_closing() or self.reader.at_eof():
            return False
        if idle_timeout > 0:
            return (perf_counter() - self.idle_since) <= idle_timeout
        return True

    def close(self) -> None:
        """Abort the transport (idle teardown needs no graceful close)."""
        if not self.writer.is_closing():
            self.writer.close()


class ConnectionPool:
    """Bounded idle-connection pool keyed by ``(host, port)``.

    Parameters
    ----------
    max_idle_per_host:
        Idle connections kept per upstream; 0 disables pooling entirely
        (every acquire opens and every release closes).
    idle_timeout:
        Seconds an idle connection stays eligible; stale entries are
        closed lazily on the next acquire against that upstream.
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
        self._idle: Dict[Tuple[str, int], List[PooledConnection]] = {}
        self._on_reuse = on_reuse
        self._closed = False

    def idle_count(self, host: str, port: int) -> int:
        """Idle connections currently parked for one upstream."""
        return len(self._idle.get((host, port), ()))

    @property
    def total_idle(self) -> int:
        """Idle connections across all upstreams."""
        return sum(len(conns) for conns in self._idle.values())

    async def acquire(self, host: str, port: int) -> PooledConnection:
        """A healthy pooled connection, or a freshly opened one."""
        key = (host, port)
        idle = self._idle.get(key)
        while idle:
            conn = idle.pop()
            if conn.healthy(self.idle_timeout):
                conn.reuses += 1
                conn.was_reused = True
                self.stats.reused += 1
                if self._on_reuse is not None:
                    self._on_reuse()
                return conn
            conn.close()
            self.stats.expired += 1
        reader, writer = await asyncio.open_connection(host, port)
        bound_reads(writer.transport)
        self.stats.created += 1
        return PooledConnection(host, port, reader, writer)

    def release(self, conn: PooledConnection, reusable: bool = True) -> None:
        """Return *conn* to the pool, or close it if not *reusable*."""
        if (
            not reusable
            or self._closed
            or self.max_idle_per_host <= 0
            or conn.writer.is_closing()
            or conn.reader.at_eof()
        ):
            conn.close()
            self.stats.discarded += 1
            return
        idle = self._idle.setdefault((conn.host, conn.port), [])
        if len(idle) >= self.max_idle_per_host:
            conn.close()
            self.stats.discarded += 1
            return
        conn.idle_since = perf_counter()
        conn.was_reused = False
        idle.append(conn)

    async def close(self) -> None:
        """Close every idle connection and refuse further parking."""
        self._closed = True
        for conns in self._idle.values():
            for conn in conns:
                conn.close()
        waiters = [
            conn.writer.wait_closed()
            for conns in self._idle.values()
            for conn in conns
        ]
        self._idle.clear()
        for waiter in waiters:
            try:
                await waiter
            except (ConnectionError, asyncio.CancelledError):
                pass
