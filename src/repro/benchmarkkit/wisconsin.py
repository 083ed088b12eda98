"""The Wisconsin Proxy Benchmark workload model.

Each client issues ``requests_per_client`` GETs.  With probability
``target_hit_ratio`` a request re-references a document from the
client's own history (recency-biased, so it is almost surely still in
the proxy cache -- this realizes the benchmark's "inherent cache hit
ratio in the request stream can be adjusted"); otherwise it requests a
brand-new document unique to that client, so streams of different
clients never overlap and there are no remote cache hits (the paper's
worst case for ICP, Table II).

``shared_fraction`` opts into cross-client sharing: with that
probability a request targets one of ``shared_docs`` documents common
to every client, which is what gives cooperative placement something
to win on (remote hits, single-copy storage).  At the default 0.0 the
generator draws nothing extra, so existing streams are bit-identical.

Body sizes are Pareto with alpha = 1.1, matching "the document sizes
follow the Pareto distribution with alpha = 1.1".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.traces.model import Request


@dataclass(frozen=True)
class WisconsinConfig:
    """Parameters of one benchmark run's workload."""

    num_clients: int = 120
    requests_per_client: int = 200
    target_hit_ratio: float = 0.25
    pareto_alpha: float = 1.1
    mean_size: int = 8 * 1024
    max_size: int = 4 * 1024 * 1024
    #: How far back in its history a client re-references (recency bias).
    history_depth: int = 200
    seed: int = 1
    #: Probability that a request targets the cross-client shared pool
    #: instead of the client's private stream.  0.0 (the default)
    #: disables the pool and leaves the private streams bit-identical
    #: to earlier versions of this generator.
    shared_fraction: float = 0.0
    #: Size of the shared pool (distinct documents all clients share).
    shared_docs: int = 64

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        if self.requests_per_client < 1:
            raise ConfigurationError("requests_per_client must be >= 1")
        if not 0.0 <= self.target_hit_ratio < 1.0:
            raise ConfigurationError(
                "target_hit_ratio must be in [0, 1)"
            )
        if self.pareto_alpha <= 1.0:
            raise ConfigurationError("pareto_alpha must be > 1")
        if not 0.0 <= self.shared_fraction < 1.0:
            raise ConfigurationError(
                "shared_fraction must be in [0, 1)"
            )
        if self.shared_docs < 1:
            raise ConfigurationError("shared_docs must be >= 1")


def generate_client_streams(config: WisconsinConfig) -> List[List[Request]]:
    """Return one request list per client.

    Deterministic for a fixed config (the paper uses "the same seeds in
    the random number generators for the no-ICP and ICP experiments to
    ensure comparable results").
    """
    import numpy as np

    rng = random.Random(config.seed)
    np_rng = np.random.default_rng(config.seed)
    scale = config.mean_size * (config.pareto_alpha - 1.0) / config.pareto_alpha

    # The shared pool draws come from a *separate* generator so turning
    # the pool on (or resizing it) never perturbs the private streams,
    # and shared_fraction=0.0 draws nothing at all -- existing workloads
    # stay bit-identical.
    sharing = config.shared_fraction > 0.0
    shared_sizes: List[int] = []
    if sharing:
        shared_rng = np.random.default_rng(config.seed + 0x5A5A)
        shared_sizes = [
            max(64, int(min(s, config.max_size)))
            for s in scale
            * (1.0 + shared_rng.pareto(config.pareto_alpha, config.shared_docs))
        ]

    streams: List[List[Request]] = []
    next_doc_id = 0
    for client_id in range(config.num_clients):
        history: List[int] = []
        sizes = {}
        stream: List[Request] = []
        draws = np_rng.random(config.requests_per_client)
        pareto = scale * (
            1.0 + np_rng.pareto(config.pareto_alpha, config.requests_per_client)
        )
        if sharing:
            shared_draws = shared_rng.random(config.requests_per_client)
            shared_picks = shared_rng.integers(
                0, config.shared_docs, config.requests_per_client
            )
        for i in range(config.requests_per_client):
            if sharing and shared_draws[i] < config.shared_fraction:
                doc = int(shared_picks[i])
                stream.append(
                    Request(
                        timestamp=float(i),
                        client_id=client_id,
                        url=f"http://wpb.example.com/shared/d{doc}",
                        size=shared_sizes[doc],
                        version=0,
                    )
                )
                continue
            if history and draws[i] < config.target_hit_ratio:
                # Re-reference: recency-biased pick from own history.
                depth = min(len(history), config.history_depth)
                offset = min(int(rng.expovariate(0.25)), depth - 1)
                doc = history[-(offset + 1)]
            else:
                doc = next_doc_id
                next_doc_id += 1
                sizes[doc] = int(min(pareto[i], config.max_size))
            history.append(doc)
            stream.append(
                Request(
                    timestamp=float(i),
                    client_id=client_id,
                    url=f"http://wpb.example.com/c{client_id}/d{doc}",
                    size=max(64, sizes[doc]),
                    version=0,
                )
            )
        streams.append(stream)
    return streams
