"""Helpers shared by the proxy tests."""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from repro.proxy.http import HttpClient


def copy_holds(seeker, holder: Tuple[str, int], url: str) -> bool:
    """Does *seeker*'s copy of the summary of the peer at ICP address
    *holder* say *url* may be there?  (Asked the way a miss asks.)"""
    return any(
        state.address.icp_addr == holder
        for state in seeker._candidate_peers(url)
    )


async def trailing(client: HttpClient) -> bytes:
    """What the server sent after the last response *client* read,
    once the server has closed the connection."""
    await client.closed
    return bytes(client._view[: client._used])


class FakeTransport(asyncio.Transport):
    """A transport standing in for a socket under one protocol.

    Keeps every write in :attr:`writes`.  :attr:`unsent` counts bytes
    written but not yet taken by the peer: above the high-water mark
    the protocol is paused, and :meth:`take` resumes it at or below the
    low one, as asyncio's socket transports do.  With *takes* the peer
    takes every write at once.  *high* overrides the mark the protocol
    installs.  :meth:`feed` delivers the peer's bytes through the
    protocol's buffer, and closing reports the connection lost at once.
    """

    def __init__(
        self,
        protocol: asyncio.BufferedProtocol,
        takes: bool = False,
        high: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.protocol = protocol
        self.takes = takes
        self.writes: List[bytes] = []
        self.unsent = 0
        self.high = self.low = high or 0
        self._fixed = high is not None
        self.paused = False
        self.resumes = 0
        self.reading = True
        self.read_pauses = 0
        self.closed = False
        protocol.connection_made(self)

    @property
    def data(self) -> bytes:
        return b"".join(self.writes)

    def feed(self, data: bytes) -> bytes:
        """Deliver *data* while the protocol reads; returns the rest
        (empty unless reading paused or the connection closed)."""
        while data and self.reading and not self.closed:
            buf = self.protocol.get_buffer(len(data))
            n = min(len(buf), len(data))
            buf[:n] = data[:n]
            data = data[n:]
            self.protocol.buffer_updated(n)
        return data

    def take(self) -> None:
        """The peer reads everything unsent."""
        self.unsent = 0
        if self.paused:
            self.paused = False
            self.resumes += 1
            self.protocol.resume_writing()

    def set_write_buffer_limits(self, high=None, low=None) -> None:
        if not self._fixed:
            self.high = high
            self.low = high // 4 if low is None else low

    def get_write_buffer_size(self) -> int:
        return self.unsent

    def write(self, data) -> None:
        assert not self.closed
        self.writes.append(bytes(data))
        if self.takes:
            return
        self.unsent += len(data)
        if not self.paused and self.unsent > self.high:
            self.paused = True
            self.protocol.pause_writing()

    def pause_reading(self) -> None:
        self.reading = False
        self.read_pauses += 1

    def resume_reading(self) -> None:
        self.reading = True

    def is_reading(self) -> bool:
        return self.reading

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.protocol.connection_lost(None)

    abort = close

    def is_closing(self) -> bool:
        return self.closed
