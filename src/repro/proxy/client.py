"""Client drivers replaying workloads against a prototype proxy.

The paper's replay experiments bind clients to proxies two ways
(Section VII): experiment 3 preserves the client-to-proxy binding
("client processes on the same workstation connect to the same proxy
server"), experiment 4 round-robins requests across clients.  The
cluster harness implements both assignments on top of this driver.
"""

from __future__ import annotations

import asyncio
import logging
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError, ProxyError
from repro.obs.spans import (
    TRACE_HEADER,
    TraceContext,
    format_id,
    parse_context,
)
from repro.proxy.http import HttpResponse, read_response, write_request
from repro.traces.model import Request

logger = logging.getLogger(__name__)


def _fresh_id() -> int:
    """A non-zero 32-bit id for client-originated trace context."""
    return int.from_bytes(os.urandom(4), "big") or 1


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

    The driver holds one persistent connection to the proxy and rides
    it across requests, reconnecting transparently (at most once per
    request) if the proxy closed it between exchanges.

    Parameters
    ----------
    host, port:
        HTTP address of the proxy this driver talks to.
    timeout:
        Optional per-request wall-clock budget in seconds.  A request
        exceeding it raises :class:`~repro.errors.ProxyError` after a
        warning carrying the proxy address and the request's trace id,
        so slow rounds can be correlated with the proxy-side trace ring.
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
        #: Trace id (8-hex-digit form) of the most recent completed
        #: request: the proxy's echoed ``X-SC-Trace`` when present,
        #: else the context this driver sent.  Empty until a request
        #: carrying context completes.
        self.last_trace = ""
        #: Connections opened over the driver's lifetime (1 for an
        #: undisturbed session).
        self.connections_opened = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    @property
    def peer(self) -> str:
        """The proxy address this driver targets, for log correlation."""
        return f"{self.host}:{self.port}"

    async def fetch(self, url: str, size: int = 0) -> bytes:
        """Fetch one URL through the proxy; returns the body."""
        ctx = (
            TraceContext(trace_id=_fresh_id(), span_id=_fresh_id())
            if self.send_trace
            else None
        )
        trace = format_id(ctx.trace_id) if ctx is not None else "-"
        start = time.perf_counter()
        logger.debug(
            "fetch start peer=%s url=%s trace=%s", self.peer, url, trace
        )
        try:
            response = await asyncio.wait_for(
                self._request(url, size, ctx), timeout=self.timeout
            )
        except asyncio.TimeoutError:
            await self.close()  # the connection is mid-exchange; drop it
            self.report.requests += 1
            self.report.errors += 1
            self.report.total_latency += time.perf_counter() - start
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
        elapsed = time.perf_counter() - start
        self.report.requests += 1
        self.report.total_latency += elapsed
        if response.status != 200:
            self.report.errors += 1
            logger.warning(
                "fetch error peer=%s url=%s trace=%s status=%d",
                self.peer,
                url,
                trace,
                response.status,
            )
            raise ProtocolError(
                f"proxy returned {response.status} for {url!r}"
            )
        echoed = parse_context(response.header(TRACE_HEADER, ""))
        if echoed is not None:
            self.last_trace = format_id(echoed[0])
        elif ctx is not None:
            self.last_trace = format_id(ctx.trace_id)
        self.report.bytes_received += len(response.body)
        source = response.header("x-cache", "UNKNOWN")
        self.report.cache_sources[source] = (
            self.report.cache_sources.get(source, 0) + 1
        )
        return response.body

    async def _request(
        self, url: str, size: int, ctx: Optional[TraceContext] = None
    ) -> HttpResponse:
        """One request/response round trip on the persistent connection."""
        headers = {"X-Size": str(size)} if size else {}
        if ctx is not None:
            headers[TRACE_HEADER] = ctx.header_value()
        # A proxy may close the connection between requests (idle
        # timeout, per-connection request cap), so one transparent
        # reconnect per request is allowed.
        for attempt in (0, 1):
            reused = self._writer is not None
            if self._writer is None or self._writer.is_closing():
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
                self.connections_opened += 1
                reused = False
            assert self._reader is not None
            try:
                write_request(self._writer, url, headers, keep_alive=True)
                await self._writer.drain()
                response = await read_response(self._reader)
            except (ConnectionError, ProtocolError, OSError):
                await self.close()
                if reused and attempt == 0:
                    continue
                raise
            if not response.keep_alive:
                await self.close()
            return response
        raise ProxyError(
            f"proxy {self.peer} closed the connection twice for {url!r}"
        )  # pragma: no cover - loop returns or raises above

    async def close(self) -> None:
        """Drop the persistent connection (next request reconnects)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is None:
            return
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError, OSError):
            pass

    async def replay(self, requests: Sequence[Request]) -> ReplayReport:
        """Replay *requests* back-to-back; returns the accumulated report."""
        try:
            for req in requests:
                await self.fetch(req.url, size=req.size)
        finally:
            await self.close()
        return self.report


async def replay_concurrently(
    assignments: Sequence[Tuple["ClientDriver", Sequence[Request]]],
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
