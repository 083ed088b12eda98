"""Synthetic proxy-trace generation.

The paper's five traces are proprietary, so experiments run over
synthetic traces engineered to exhibit the properties its results
actually depend on:

- **popularity skew** -- document popularity follows a bounded Zipf
  distribution, the empirical regularity behind the logarithmic
  hit-ratio growth the paper cites (Section III references [10], [25],
  [16]);
- **temporal locality** -- each client re-references its own recent
  documents with a configurable probability, with stack-position recency
  bias (the Wisconsin benchmark's locality model, Section IV);
- **heavy-tailed sizes** -- body sizes are Pareto with alpha = 1.1, the
  exact distribution the paper's benchmark uses ("the document sizes
  follow the Pareto distribution");
- **document modification** -- each document's version advances under a
  per-access modification probability, producing the (remote) stale hits
  of Fig. 2;
- **shared working set across clients** -- different clients draw from
  the same global popularity law, which is what makes cache sharing pay
  off at all;
- **10:1 URL-to-server ratio** -- documents are grouped ~10 per server
  name, the ratio the paper observed and the server-name summary
  representation exploits.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import islice
from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.errors import ConfigurationError
from repro.traces.model import Request, Trace
from repro.urlutil import make_url

if TYPE_CHECKING:
    import numpy as np

#: Requests per block of the streaming generator core: large enough to
#: amortise the vectorised draws, small enough that a block of pending
#: draws is cache-resident.
STREAM_BLOCK_SIZE = 8192
#: Smallest body size drawn: the Pareto draw is raised to it.
MIN_BODY_SIZE = 64


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters of the synthetic trace generator.

    The defaults produce a mid-sized departmental workload; the presets
    in :mod:`repro.traces.workloads` override them per trace.
    """

    name: str = "synthetic"
    num_requests: int = 50_000
    num_clients: int = 200
    num_documents: int = 20_000
    #: Zipf exponent for document popularity (web studies report 0.6-0.9).
    zipf_alpha: float = 0.75
    #: Zipf exponent for client activity (a few clients dominate).
    client_alpha: float = 0.4
    #: Probability a request re-references from the client's recent stack.
    locality_probability: float = 0.5
    #: Depth of the per-client recency stack.
    locality_stack_depth: int = 64
    #: Probability a *new*-document request stays on the same site as
    #: the client's previous request (browsing-session behaviour).
    #: This is what concentrates a cache's documents onto few servers,
    #: giving the in-cache URL:server ratio the server-name summary
    #: representation banks on.
    server_locality: float = 0.5
    #: Pareto shape for body sizes (the paper's benchmark uses 1.1).
    pareto_alpha: float = 1.1
    #: Mean body size in bytes (the paper divides cache size by 8 KB).
    mean_size: int = 8 * 1024
    #: Ceiling on body size; a few documents exceed the 250 KB
    #: cacheability limit, exercising the admission rule.
    max_size: int = 4 * 1024 * 1024
    #: Per-access probability the document was modified since last seen.
    mod_probability: float = 0.005
    #: Mean request arrival rate, requests/second (for timestamps).
    request_rate: float = 20.0
    #: Average documents per server name (paper observes ~10:1).
    docs_per_server: int = 10
    #: Zipf exponent of server *sizes*: site sizes are heavy-tailed (a
    #: few large sites host many pages).  0 gives equal-size servers.
    server_size_alpha: float = 0.8
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ConfigurationError("num_requests must be >= 1")
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        if self.num_documents < 1:
            raise ConfigurationError("num_documents must be >= 1")
        if not 0.0 <= self.locality_probability <= 1.0:
            raise ConfigurationError(
                "locality_probability must be in [0, 1]"
            )
        if not 0.0 <= self.server_locality <= 1.0:
            raise ConfigurationError(
                "server_locality must be in [0, 1]"
            )
        if self.pareto_alpha <= 1.0:
            raise ConfigurationError(
                "pareto_alpha must be > 1 for a finite mean"
            )
        if self.mean_size < 1:
            raise ConfigurationError("mean_size must be >= 1")
        if self.max_size < MIN_BODY_SIZE:
            raise ConfigurationError(
                f"max_size must be >= {MIN_BODY_SIZE}, the smallest body "
                f"the generator emits"
            )
        if not 0.0 <= self.mod_probability <= 1.0:
            raise ConfigurationError("mod_probability must be in [0, 1]")
        if self.request_rate <= 0:
            raise ConfigurationError("request_rate must be > 0")
        if self.docs_per_server < 1:
            raise ConfigurationError("docs_per_server must be >= 1")

    def scaled(self, factor: float) -> "SyntheticTraceConfig":
        """Return a copy with request/client/document counts scaled."""
        if factor <= 0:
            raise ConfigurationError("scale factor must be > 0")
        return replace(
            self,
            num_requests=max(1, int(self.num_requests * factor)),
            num_clients=max(1, int(self.num_clients * factor)),
            num_documents=max(1, int(self.num_documents * factor)),
        )


def _server_boundaries(
    num_documents: int, docs_per_server: int, alpha: float
) -> np.ndarray:
    """Cumulative popularity-rank boundaries of the servers.

    Server *k* hosts the documents whose popularity ranks fall in
    ``[bounds[k-1], bounds[k])``.  Sizes follow a Zipf(alpha) law over
    servers with mean ``docs_per_server`` (every server hosts at least
    one document).
    """
    import numpy as np

    num_servers = max(1, num_documents // docs_per_server)
    ranks = np.arange(1, num_servers + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    sizes = np.maximum(
        1, np.floor(weights / weights.sum() * num_documents)
    ).astype(np.int64)
    bounds = np.cumsum(sizes)
    # Clip to the document count and make the final server absorb any
    # remainder so every rank has an owner.
    bounds = np.minimum(bounds, num_documents)
    bounds[-1] = num_documents
    return bounds


def _zipf_cdf(n: int, alpha: float) -> np.ndarray:
    """CDF of a bounded Zipf(alpha) distribution over ranks 1..n."""
    import numpy as np

    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


def _pareto_sizes(
    rng: np.random.Generator, count: int, alpha: float, mean: int, cap: int
) -> np.ndarray:
    """Draw *count* Pareto body sizes with the requested mean, capped."""
    import numpy as np

    # Pareto(scale, alpha) has mean scale * alpha / (alpha - 1); invert
    # for the scale that yields the configured mean.
    scale = mean * (alpha - 1.0) / alpha
    sizes = scale * (1.0 + rng.pareto(alpha, size=count))
    return np.minimum(sizes, cap).astype(np.int64).clip(min=MIN_BODY_SIZE)


def _nth_newest(stack: "OrderedDict[int, None]", back: int) -> int:
    """The entry *back* places behind the newest of a non-empty *stack*.

    A draw past the oldest entry returns the oldest.  The walk starts
    from the newest end, so it costs O(back), not O(len(stack)): the
    recency draw is geometric (mean about 1.5), while a stack holds up
    to ``locality_stack_depth`` entries.
    """
    return next(islice(reversed(stack), min(back, len(stack) - 1), None))


def _stream_at(state: dict, offset: int) -> np.random.Generator:
    """Clone the generator *state* advanced *offset* 64-bit steps.

    PCG64 supports O(log offset) jump-ahead, so the streaming core can
    open one independent view per pre-draw array of the monolithic
    layout: the stream for array *k* starts at offset ``k * n`` and its
    blockwise draws equal slices of the single ``rng.random(n)`` call
    bit for bit (each uniform double consumes exactly one step).
    """
    import numpy as np

    bits = np.random.PCG64()
    bits.state = state
    if offset:
        bits.advance(offset)
    return np.random.Generator(bits)


def iter_records(
    config: SyntheticTraceConfig,
    urls: List[str],
    block_size: int = STREAM_BLOCK_SIZE,
) -> Iterator[Tuple[float, int, int, int, int]]:
    """Stream *config*'s trace as ``(timestamp, client, url_id, size,
    version)`` records: the generator's one per-record loop.

    A document's URL is built on its first request and appended to
    *urls*, before that record is yielded, so ``urls[url_id]`` is the
    record's URL and ids run in first-request order -- the ``.sctr``
    string table's order, which lets the writer pack the ids as they
    come (:meth:`~repro.traces.binary.BinaryTraceWriter.pack_records`).

    Bit-exact with ``generate_trace(config)`` for any *block_size*: the
    generator state is identical (per-client recency stacks, popularity
    tables, modification versions are all O(clients + documents)), and
    the random draws are identical because each bulk stream is a
    jump-ahead clone of the seed generator (see :func:`_stream_at`)
    drawn block by block.  Memory is O(clients + documents + block_size)
    regardless of ``num_requests``, so a 10^8-request trace streams in
    bounded memory.

    The per-record loop reads Python objects only: each block's draws
    are turned into lists once, and the per-document tables are read
    through ``memoryview``s over their arrays (not lists, which would
    hold a Python int per document).  The emitted records are
    byte-identical for any *block_size*, which
    ``tests/traces/test_trace_digests.py`` pins.
    """
    import numpy as np

    if block_size < 1:
        raise ConfigurationError("block_size must be >= 1")
    np_rng = np.random.default_rng(config.seed)
    py_rng = random.Random(config.seed ^ 0x5EED)

    doc_cdf = _zipf_cdf(config.num_documents, config.zipf_alpha)
    client_cdf = _zipf_cdf(config.num_clients, config.client_alpha)
    sizes = _pareto_sizes(
        np_rng,
        config.num_documents,
        config.pareto_alpha,
        config.mean_size,
        config.max_size,
    )

    # Shuffle the doc-rank -> doc-id mapping (so document ids carry no
    # popularity information), then assign servers by *popularity
    # rank*: pages of one site are collectively popular, so
    # rank-adjacent documents share a server.  Server sizes are
    # heavy-tailed (Zipf over servers) with mean ``docs_per_server``;
    # together these give a cache of N documents far fewer than N
    # distinct server names -- the URL:server concentration the paper's
    # server-name summary representation exploits.
    doc_ids = np_rng.permutation(config.num_documents)
    server_rank_bounds = _server_boundaries(
        config.num_documents,
        config.docs_per_server,
        config.server_size_alpha,
    )
    server_for_doc = np.empty(config.num_documents, dtype=np.int64)
    server_for_doc[doc_ids] = np.searchsorted(
        server_rank_bounds, np.arange(config.num_documents), side="right"
    )
    client_ids = np_rng.permutation(config.num_clients)

    # The monolithic generator pre-drew six n-length streams here, one
    # np_rng call after another.  Streaming draws the same six streams
    # block by block from jump-ahead clones anchored at this state; the
    # exponential stream sits last so its variable per-value consumption
    # has nothing downstream to disturb.
    n = config.num_requests
    base_state = np_rng.bit_generator.state
    if base_state.get("bit_generator") != "PCG64":
        raise ConfigurationError(
            "streaming generation requires numpy's PCG64 bit generator"
        )
    (
        doc_rank_stream,
        client_rank_stream,
        locality_stream,
        server_stream,
        mod_stream,
        interarrival_stream,
    ) = (_stream_at(base_state, k * n) for k in range(6))

    # A memoryview read yields a plain int at a fraction of a numpy
    # scalar read's cost; a list of the table would be faster still but
    # raises the high-water mark by megabytes at preset scale.
    doc_id_of = memoryview(doc_ids)
    rank_bounds = memoryview(server_rank_bounds)
    size_of = memoryview(sizes)
    server_of_doc = memoryview(server_for_doc)
    client_at_rank = memoryview(client_ids)
    # Each document's URL id, -1 until its first request.
    url_id_of = memoryview(np.full(config.num_documents, -1, dtype=np.int64))
    versions = [0] * config.num_documents

    locality_probability = config.locality_probability
    server_locality = config.server_locality
    mod_probability = config.mod_probability
    depth = config.locality_stack_depth
    mean_gap = 1.0 / config.request_rate
    randrange = py_rng.randrange
    expovariate = py_rng.expovariate

    # Per-client state, indexed by client id (a permutation of
    # ``range(num_clients)``): a bounded LRU stack of recent documents
    # and the document of the last request (-1 before the first), which
    # is the stack's newest entry whenever the stack is not empty.
    stacks: List["OrderedDict[int, None]"] = [
        OrderedDict() for _ in range(config.num_clients)
    ]
    last_doc = [-1] * config.num_clients
    timestamp = 0.0
    produced = 0
    while produced < n:
        m = min(block_size, n - produced)
        for gap, client_rank, locality, same_site, doc_rank, modified in zip(
            interarrival_stream.exponential(mean_gap, size=m).tolist(),
            np.searchsorted(client_cdf, client_rank_stream.random(m)).tolist(),
            locality_stream.random(m).tolist(),
            server_stream.random(m).tolist(),
            np.searchsorted(doc_cdf, doc_rank_stream.random(m)).tolist(),
            mod_stream.random(m).tolist(),
        ):
            # Running sum matches np.cumsum's sequential float64
            # accumulation bit for bit.
            timestamp += gap
            client = client_at_rank[client_rank]
            stack = stacks[client]
            if stack and locality < locality_probability:
                # A re-reference, geometrically biased to recent
                # entries; the newest (back == 0) is already in place.
                back = int(expovariate(0.5))
                if back:
                    doc = _nth_newest(stack, back)
                    stack.move_to_end(doc)
                else:
                    doc = last_doc[client]
            else:
                prev = last_doc[client]
                if prev >= 0 and same_site < server_locality:
                    # Stay on the same site: another page of the previous
                    # request's server (a rank range of its boundary table).
                    server = server_of_doc[prev]
                    low = rank_bounds[server - 1] if server > 0 else 0
                    rank = low + randrange(max(1, rank_bounds[server] - low))
                else:
                    rank = doc_rank
                doc = doc_id_of[rank]
                if doc in stack:
                    stack.move_to_end(doc)
                else:
                    stack[doc] = None
                    if len(stack) > depth:
                        stack.popitem(last=False)
            last_doc[client] = doc

            if modified < mod_probability:
                versions[doc] += 1
            url_id = url_id_of[doc]
            if url_id < 0:
                url_id = url_id_of[doc] = len(urls)
                urls.append(make_url(server_of_doc[doc], doc))
            yield timestamp, client, url_id, size_of[doc], versions[doc]
        produced += m


def iter_requests(
    config: SyntheticTraceConfig, block_size: int = STREAM_BLOCK_SIZE
) -> Iterator[Request]:
    """Stream the synthetic trace for *config* without materializing it.

    The records of :func:`iter_records` with each URL id mapped back to
    its URL; bit-exact with ``generate_trace(config)`` for any
    *block_size*.
    """
    urls: List[str] = []
    new = tuple.__new__  # Request._make without its frame
    for timestamp, client, url_id, size, version in iter_records(
        config, urls, block_size
    ):
        yield new(Request, (timestamp, client, urls[url_id], size, version))


def generate_trace(config: SyntheticTraceConfig) -> Trace:
    """Generate a synthetic trace per *config*.

    Deterministic for a fixed config (including seed).  A thin
    materializing wrapper over :func:`iter_requests`; callers that can
    consume an iterable should prefer the streaming core directly.
    """
    return Trace(requests=list(iter_requests(config)), name=config.name)
