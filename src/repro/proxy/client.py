"""Client drivers replaying workloads against a prototype proxy.

The paper's replay experiments bind clients to proxies two ways
(Section VII): experiment 3 preserves the client-to-proxy binding
("client processes on the same workstation connect to the same proxy
server"), experiment 4 round-robins requests across clients.  The
cluster harness implements both assignments on top of this driver.

A driver speaks the same HTTP client as the proxy's own upstream
fetches: one :class:`~repro.proxy.http.HttpClient` connection, held by
a :class:`~repro.proxy.pool.ConnectionPool` of one and exchanged
through :meth:`~repro.proxy.pool.ConnectionPool.get`.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError, ProxyError
from repro.obs.spans import (
    TRACE_HEADER,
    IdGenerator,
    format_context,
    format_id,
    parse_context,
)
from repro.proxy.http import Deadline
from repro.proxy.pool import ConnectionPool
from repro.traces.model import Request

logger = logging.getLogger(__name__)


def _trace_label(trace_id: int) -> str:
    """A request's trace id for log lines: 8 hex digits, or ``-``."""
    return format_id(trace_id) if trace_id else "-"


def _cancelled_again(task: Optional[asyncio.Task[Any]]) -> bool:
    """Take back the deadline's ``cancel()`` of *task*; whether another
    cancellation is still pending (only Python 3.11+ can tell)."""
    uncancel = getattr(task, "uncancel", None)
    return uncancel is not None and bool(uncancel() > 0)


@dataclass
class ReplayReport:
    """What one client driver observed."""

    requests: int = 0
    errors: int = 0
    bytes_received: int = 0
    total_latency: float = 0.0
    cache_sources: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_latency(self) -> float:
        """Mean per-request latency in seconds."""
        return self.total_latency / self.requests if self.requests else 0.0

    def merge(self, other: "ReplayReport") -> "ReplayReport":
        """Element-wise sum of two reports."""
        sources = dict(self.cache_sources)
        for key, count in other.cache_sources.items():
            sources[key] = sources.get(key, 0) + count
        return ReplayReport(
            requests=self.requests + other.requests,
            errors=self.errors + other.errors,
            bytes_received=self.bytes_received + other.bytes_received,
            total_latency=self.total_latency + other.total_latency,
            cache_sources=sources,
        )


class ClientDriver:
    """Issues GET requests sequentially (no think time) to one proxy.

    The driver holds one persistent connection to the proxy, parked in
    a one-connection :class:`~repro.proxy.pool.ConnectionPool` between
    requests, and rides it across requests; the pool reconnects
    transparently if the proxy closed it between exchanges.

    A request costs the event loop no task and no timer of its own.
    The timeout is one :class:`~repro.proxy.http.Deadline` per driver,
    armed by the first fetch and disarmed by :meth:`close`: ``fetch``
    stamps the loop time when it starts and clears the stamp when it
    ends, and the deadline cancels a fetch still open after *timeout*
    seconds.  Trace ids come from one ``os.urandom``-seeded counter per
    driver, and the proxy's echoed context is parsed only when
    :attr:`last_trace` is read.

    Parameters
    ----------
    host, port:
        HTTP address of the proxy this driver talks to.
    timeout:
        Optional per-request wall-clock budget in seconds.  A request
        exceeding it raises :class:`~repro.errors.ProxyError` after a
        warning carrying the proxy address and the request's trace id,
        so slow rounds can be correlated with the proxy-side trace ring.
        The connection, mid-exchange, is dropped; the next fetch
        reconnects.  A fetch cancelled from outside still raises
        :class:`asyncio.CancelledError`, and drops the connection too.
    send_trace:
        When true (the default), every request carries a fresh
        ``X-SC-Trace`` context, so the proxy's root span -- and
        everything the request causes on other proxies -- shares a
        trace id this driver knows (:attr:`last_trace`).  Turn off for
        the tracing-overhead baseline.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = None,
        send_trace: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.send_trace = send_trace
        self.report = ReplayReport()
        self._pool = ConnectionPool(max_idle_per_host=1, idle_timeout=0)
        self._deadline: Optional[Deadline] = None
        self._ids = IdGenerator()
        #: The last completed request's trace id as sent (0: none) and
        #: the ``X-SC-Trace`` value the proxy echoed, still unparsed.
        self._sent_trace = 0
        self._echoed_trace = ""

    @property
    def connections_opened(self) -> int:
        """Connections opened over the driver's lifetime (1 for an
        undisturbed run)."""
        return self._pool.stats.created

    @property
    def peer(self) -> str:
        """The proxy address this driver targets, for log correlation."""
        return f"{self.host}:{self.port}"

    @property
    def last_trace(self) -> str:
        """Trace id (8-hex-digit form) of the most recent completed
        request: the proxy's echoed ``X-SC-Trace`` when present, else
        the context this driver sent.  Empty when that request carried
        neither, or before any request completes."""
        echoed = parse_context(self._echoed_trace)
        if echoed is not None:
            return format_id(echoed[0])
        return format_id(self._sent_trace) if self._sent_trace else ""

    async def fetch(self, url: str, size: int = 0) -> bytes:
        """Fetch one URL through the proxy; returns the body."""
        headers = {"X-Size": str(size)} if size else {}
        trace_id = 0
        if self.send_trace:
            trace_id = self._ids.next_id()
            headers[TRACE_HEADER] = format_context(
                trace_id, self._ids.next_id()
            )
        deadline = self._deadline
        if deadline is None:
            deadline = self._deadline = Deadline(self.timeout or 0)
        logger.debug(
            "fetch start peer=%s:%d url=%s trace=%08x",
            self.host,
            self.port,
            url,
            trace_id,
        )
        start = time.perf_counter()
        deadline.task = asyncio.current_task()
        deadline.since = deadline.loop.time()
        try:
            response = await self._pool.get(self.host, self.port, url, headers)
        except asyncio.CancelledError:
            self._disarm()  # the pool dropped the connection
            if not deadline.expired or _cancelled_again(deadline.task):
                raise  # cancelled from outside, not by the deadline
            self.report.requests += 1
            self.report.errors += 1
            self.report.total_latency += time.perf_counter() - start
            trace = _trace_label(trace_id)
            logger.warning(
                "fetch timeout peer=%s url=%s trace=%s timeout=%.3fs",
                self.peer,
                url,
                trace,
                self.timeout,
            )
            raise ProxyError(
                f"proxy {self.peer} timed out after {self.timeout}s "
                f"for {url!r} (trace={trace})"
            ) from None
        finally:
            deadline.since = None
        self.report.requests += 1
        self.report.total_latency += time.perf_counter() - start
        if response.status != 200:
            self.report.errors += 1
            logger.warning(
                "fetch error peer=%s url=%s trace=%s status=%d",
                self.peer,
                url,
                _trace_label(trace_id),
                response.status,
            )
            raise ProtocolError(
                f"proxy returned {response.status} for {url!r}"
            )
        self._sent_trace = trace_id
        self._echoed_trace = response.header(TRACE_HEADER)
        self.report.bytes_received += len(response.body)
        source = response.header("x-cache", "UNKNOWN")
        self.report.cache_sources[source] = (
            self.report.cache_sources.get(source, 0) + 1
        )
        return response.body

    def _disarm(self) -> None:
        """Disarm the deadline (the next fetch re-arms it)."""
        if self._deadline is not None:
            self._deadline.cancel()
            self._deadline = None

    async def close(self) -> None:
        """Drop the persistent connection and disarm the deadline (the
        next fetch reconnects and re-arms it)."""
        self._disarm()
        await self._pool.clear()

    async def replay(self, requests: Iterable[Request]) -> ReplayReport:
        """Replay *requests* back-to-back; returns the accumulated report."""
        try:
            for req in requests:
                await self.fetch(req.url, size=req.size)
        finally:
            await self.close()
        return self.report


async def replay_concurrently(
    assignments: Sequence[Tuple["ClientDriver", Iterable[Request]]],
) -> ReplayReport:
    """Run several drivers' replays concurrently and merge their reports.

    Mirrors the benchmark's "client processes issue requests with no
    thinking time in between" -- each driver is serial, drivers run in
    parallel.
    """
    reports: List[ReplayReport] = await asyncio.gather(
        *(driver.replay(reqs) for driver, reqs in assignments)
    )
    merged = ReplayReport()
    for report in reports:
        merged = merged.merge(report)
    return merged
