"""Assigning trace clients to proxy groups.

The paper partitions trace clients into proxy groups: "A client is put
in a group if its clientid mod the group size equals the group ID"
(16 groups for DEC, 8 for UCB and UPisa; Questnet's 12 child proxies and
NLANR's 4 proxies are given by the traces themselves).  The sharing
simulators apply that rule record by record as they replay
(``repro.sharing.engine._replay``); :func:`client_streams` deals a trace
to the proxies and serial clients of the DES and the live cluster.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.traces.model import Request

#: What the partitioners accept: a materialized :class:`Trace`, an
#: mmap-backed binary reader, or any plain request iterable/generator.
TraceLike = Iterable[Request]


def group_of(client_id: int, num_groups: int) -> int:
    """The paper's rule: group = clientid mod number-of-groups."""
    if num_groups < 1:
        raise ConfigurationError(f"num_groups must be >= 1, got {num_groups}")
    return client_id % num_groups


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
