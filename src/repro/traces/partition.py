"""Assigning trace clients to proxy groups.

The paper partitions trace clients into proxy groups: "A client is put
in a group if its clientid mod the group size equals the group ID"
(16 groups for DEC, 8 for UCB and UPisa; Questnet's 12 child proxies and
NLANR's 4 proxies are given by the traces themselves).
"""

from __future__ import annotations

from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.traces.model import Request, Trace

#: What the partitioners accept: a materialized :class:`Trace`, an
#: mmap-backed binary reader, or any plain request iterable/generator.
TraceLike = Iterable[Request]

#: Default replay chunk: large enough to amortise the per-chunk sweep,
#: small enough that a chunk of annotated requests stays cache-resident.
DEFAULT_CHUNK_SIZE = 2048


def group_of(client_id: int, num_groups: int) -> int:
    """The paper's rule: group = clientid mod number-of-groups."""
    if num_groups < 1:
        raise ConfigurationError(f"num_groups must be >= 1, got {num_groups}")
    return client_id % num_groups


def partition_by_client(trace: TraceLike, num_groups: int) -> List[Trace]:
    """Split *trace* into per-group traces by clientid mod *num_groups*.

    Request order (and thus timestamps) is preserved within each group.
    """
    name = getattr(trace, "name", "stream")
    buckets: List[list] = [[] for _ in range(num_groups)]
    for req in trace:
        buckets[group_of(req.client_id, num_groups)].append(req)
    return [
        Trace(requests=bucket, name=f"{name}/g{gid}")
        for gid, bucket in enumerate(buckets)
    ]


def split_by_group(trace: TraceLike, num_groups: int) -> List[tuple]:
    """Return the merged stream annotated with group ids.

    Yields ``(group_id, request)`` tuples in global timestamp order --
    the form the sharing simulators consume, since cache sharing
    interleaves all proxies' requests in time.
    """
    return [
        (group_of(req.client_id, num_groups), req) for req in trace
    ]


def grouped_chunks(
    trace: TraceLike,
    num_groups: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[List[Tuple[int, Request]]]:
    """Yield the merged stream in chunks of ``(group_id, request)`` pairs.

    Group ids for a whole chunk are derived in one comprehension sweep
    rather than one :func:`group_of` call per request -- the batched
    replay path of the sharing simulators.  Request order is unchanged,
    so replaying chunk-by-chunk is bit-exact with the per-request loop.

    Accepts any request iterable.  A materialized trace (or any random
    access sequence) is sliced in place; everything else -- generators,
    mmap-backed binary readers -- streams through :func:`itertools.islice`
    windows, so no more than one chunk is ever resident.
    """
    if num_groups < 1:
        raise ConfigurationError(f"num_groups must be >= 1, got {num_groups}")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    requests: Iterable[Request] = (
        trace.requests if isinstance(trace, Trace) else trace
    )
    if isinstance(requests, Sequence):
        for start in range(0, len(requests), chunk_size):
            chunk = requests[start : start + chunk_size]
            yield [(req.client_id % num_groups, req) for req in chunk]
        return
    stream = iter(requests)
    while True:
        chunk = list(islice(stream, chunk_size))
        if not chunk:
            return
        yield [(req.client_id % num_groups, req) for req in chunk]


def client_streams(
    trace: TraceLike,
    num_proxies: int,
    clients_per_proxy: int,
    assignment: str = "client-bound",
    *,
    lazy: bool = False,
) -> List[Tuple[int, Iterable[Request]]]:
    """Deal *trace* to proxies, then to each proxy's serial clients.

    ``"client-bound"`` (the paper's experiment 3) sends a trace client's
    requests to the proxy :func:`group_of` names; ``"round-robin"``
    (experiment 4) deals requests to proxies in trace order.  Each
    proxy's share is dealt round-robin again to its clients, so every
    client keeps trace order.  Returns one ``(proxy index, requests)``
    pair per client, proxy by proxy, dealt in one pass into lists.  With
    *lazy* each client's stream is instead its own scan of *trace*, for
    a reader too large to hold: *trace* must then be re-iterable.
    """
    if assignment not in ("client-bound", "round-robin"):
        raise ConfigurationError(
            f"unknown assignment {assignment!r}; expected "
            "'client-bound' or 'round-robin'"
        )
    if num_proxies < 1 or clients_per_proxy < 1:
        raise ConfigurationError(
            "dealing a trace needs >= 1 proxy and >= 1 client per proxy"
        )
    if lazy and iter(trace) is trace:
        raise ConfigurationError(
            "a lazy deal scans the trace once per client; a one-shot "
            "iterator cannot be scanned twice"
        )
    deal = partial(
        _deal, trace, num_proxies, clients_per_proxy, assignment == "client-bound"
    )
    clients = range(num_proxies * clients_per_proxy)
    if lazy:
        streams: List[Iterable[Request]] = [_scan(deal, c) for c in clients]
    else:
        streams = [[] for _ in clients]
        for client, req in deal():
            streams[client].append(req)
    return [(c // clients_per_proxy, streams[c]) for c in clients]


def _deal(
    trace: TraceLike, num_proxies: int, clients_per_proxy: int, bound: bool
) -> Iterator[Tuple[int, Request]]:
    """Each request of *trace* with the client it is dealt to, numbered
    proxy by proxy (see :func:`client_streams`)."""
    dealt = [0] * num_proxies
    for index, req in enumerate(trace):
        proxy = (req.client_id if bound else index) % num_proxies
        yield proxy * clients_per_proxy + dealt[proxy] % clients_per_proxy, req
        dealt[proxy] += 1


def _scan(
    deal: Callable[[], Iterator[Tuple[int, Request]]], client: int
) -> Iterator[Request]:
    """Client *client*'s requests, from a fresh deal of the trace."""
    for dealt_to, req in deal():
        if dealt_to == client:
            yield req
