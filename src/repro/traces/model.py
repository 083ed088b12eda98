"""Request records and trace containers.

A trace is an ordered sequence of :class:`Request` records.  Each request
carries the document's *current* version, standing in for the
last-modified time the paper's traces record: "most traces come with the
last-modified time or the size of a document for every request, and if a
request hits on a document whose last-modified time or size is changed,
we count it as a cache miss."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, NamedTuple, Sequence

from repro.urlutil import server_of


class Request(NamedTuple):
    """One HTTP GET in a trace.

    An immutable tuple of five fields: the generator, the ``.sctr``
    reader and the Squid log reader build one per record, and a tuple is
    the cheapest record to build.  The generator and the ``.sctr``
    reader call ``tuple.__new__(Request, fields)``: that is
    ``Request._make`` without its Python frame or its length check, so
    they pass exactly the five fields, in order.  Being a tuple, a
    request also compares equal to a plain tuple of the same values, and
    a consumer may unpack it by position.

    Attributes
    ----------
    timestamp:
        Seconds since trace start.
    client_id:
        Integer client identifier (group assignment hashes this).
    url:
        Requested URL.
    size:
        Response body size in bytes.
    version:
        The document's version at request time.  A cached copy with an
        older version is stale.
    """

    timestamp: float
    client_id: int
    url: str
    size: int
    version: int = 0

    @property
    def server(self) -> str:
        """Server-name component of the URL."""
        return server_of(self.url)


@dataclass
class Trace:
    """An ordered request stream plus identifying metadata."""

    requests: List[Request] = field(default_factory=list)
    name: str = "unnamed"

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def __getitem__(self, index):
        return self.requests[index]

    @cached_property
    def duration(self) -> float:
        """Seconds between the first and last request.

        Cached after the first access: traces are treated as immutable
        once built (every producer constructs a fresh ``Trace``), so
        invalidation never arises and repeated reads on a multi-million
        request trace stay O(1).
        """
        if len(self.requests) < 2:
            return 0.0
        return self.requests[-1].timestamp - self.requests[0].timestamp

    def clients(self) -> Sequence[int]:
        """Sorted distinct client ids.

        The distinct-scan runs once and is cached (same immutability
        contract as :attr:`duration`); callers must not mutate the
        returned list.
        """
        cached = self.__dict__.get("_clients_cache")
        if cached is None:
            cached = sorted({r.client_id for r in self.requests})
            self.__dict__["_clients_cache"] = cached
        return cached

    def head(self, n: int) -> "Trace":
        """Return a trace of the first *n* requests (the paper replays
        the first 24,000 UPisa requests this way)."""
        return Trace(requests=self.requests[:n], name=f"{self.name}[:{n}]")
