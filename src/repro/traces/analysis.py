"""Trace characterization: the workload properties the paper's results
ride on.

The paper's argument rests on empirical regularities of proxy traces --
Zipf-like popularity, heavy-tailed sizes, cross-group request overlap
("the overlap of requests from different users reduces the number of
cold misses").  These tools measure those properties on any trace
(synthetic or a parsed ``access.log``), both to validate the synthetic
generator and to let users characterize their own workloads before
choosing sharing parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.errors import ConfigurationError
from repro.traces.model import Trace
from repro.traces.partition import group_of


def fit_zipf_alpha(trace: Trace, head_fraction: float = 0.5) -> float:
    """Estimate the Zipf exponent of document popularity.

    Fits ``log(frequency) = -alpha * log(rank) + c`` by least squares
    over the most-popular *head_fraction* of ranks (the tail of a
    bounded Zipf bends away from the power law, so fitting the head is
    standard practice).
    """
    import numpy as np

    if not 0 < head_fraction <= 1:
        raise ConfigurationError(
            f"head_fraction must be in (0, 1], got {head_fraction}"
        )
    counts: Dict[str, int] = {}
    for req in trace:
        counts[req.url] = counts.get(req.url, 0) + 1
    if len(counts) < 3:
        raise ConfigurationError(
            "need at least 3 distinct documents to fit a Zipf exponent"
        )
    freqs = np.sort(np.array(list(counts.values()), dtype=np.float64))[::-1]
    head = max(3, int(len(freqs) * head_fraction))
    ranks = np.arange(1, head + 1, dtype=np.float64)
    slope, _intercept = np.polyfit(
        np.log(ranks), np.log(freqs[:head]), 1
    )
    return float(-slope)


@dataclass(frozen=True)
class SizeStats:
    """Summary statistics of the distinct-document size distribution."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    max: int
    #: Hill estimator of the Pareto tail index over the top 5% of sizes
    #: (alpha ~ 1.1 for the paper's benchmark distribution); ``nan``
    #: when no size lies below the tail or the tail is flat.
    tail_index: float


def size_statistics(trace: Trace, tail_fraction: float = 0.05) -> SizeStats:
    """Compute :class:`SizeStats` over the distinct documents of *trace*."""
    import numpy as np

    sizes_by_url: Dict[str, int] = {}
    for req in trace:
        sizes_by_url[req.url] = req.size
    if not sizes_by_url:
        raise ConfigurationError("trace has no requests")
    sizes = np.sort(np.array(list(sizes_by_url.values()), dtype=np.float64))
    # Hill over the k largest sizes, measured from X(k+1), the largest
    # size outside the tail: a threshold taken from inside the tail adds
    # a log 1 = 0 term and biases the estimate up by k / (k - 1).
    k = max(2, int(len(sizes) * tail_fraction))
    hill = float("nan")
    if len(sizes) > k and sizes[-k - 1] > 0:
        mean_log = float(np.mean(np.log(sizes[-k:] / sizes[-k - 1])))
        if mean_log > 0:
            hill = 1.0 / mean_log
    return SizeStats(
        count=len(sizes),
        mean=float(sizes.mean()),
        median=float(np.median(sizes)),
        p95=float(np.percentile(sizes, 95)),
        p99=float(np.percentile(sizes, 99)),
        max=int(sizes[-1]),
        tail_index=hill,
    )


def group_overlap_matrix(
    trace: Trace, num_groups: int
) -> List[List[float]]:
    """Pairwise document overlap between proxy groups.

    ``matrix[i][j]`` is the fraction of group *i*'s distinct documents
    that group *j* also references (``matrix[i][i] = 1``).  High
    off-diagonal values are what make cache sharing pay.
    """
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    docs: List[Set[str]] = [set() for _ in range(num_groups)]
    for req in trace:
        docs[group_of(req.client_id, num_groups)].add(req.url)
    matrix: List[List[float]] = []
    for i in range(num_groups):
        row = []
        for j in range(num_groups):
            if not docs[i]:
                row.append(0.0)
            else:
                row.append(len(docs[i] & docs[j]) / len(docs[i]))
        matrix.append(row)
    return matrix


def sharing_potential(trace: Trace, num_groups: int) -> float:
    """Upper bound on the remote-hit ratio with infinite caches.

    The fraction of requests that miss in their own group's history but
    hit some other group's history -- exactly the requests cache
    sharing can convert from origin fetches to remote hits (ignoring
    capacity and staleness).
    """
    if num_groups < 1:
        raise ConfigurationError("num_groups must be >= 1")
    seen_by_group: List[Set[str]] = [set() for _ in range(num_groups)]
    seen_anywhere: Set[str] = set()
    shareable = 0
    for req in trace:
        g = group_of(req.client_id, num_groups)
        if req.url not in seen_by_group[g] and req.url in seen_anywhere:
            shareable += 1
        seen_by_group[g].add(req.url)
        seen_anywhere.add(req.url)
    return shareable / len(trace) if len(trace) else 0.0


def interreference_percentiles(
    trace: Trace,
    percentiles: Sequence[float] = (50, 90, 99),
) -> Dict[float, float]:
    """Percentiles of the inter-reference distance (in requests).

    The distance between successive references to the same document;
    short distances mean LRU caches capture the reuse, long ones need
    capacity (or a peer's cache).
    """
    last_seen: Dict[str, int] = {}
    distances: List[int] = []
    for index, req in enumerate(trace):
        prev = last_seen.get(req.url)
        if prev is not None:
            distances.append(index - prev)
        last_seen[req.url] = index
    if not distances:
        return {p: float("nan") for p in percentiles}
    import numpy as np

    array = np.array(distances, dtype=np.float64)
    return {
        p: float(np.percentile(array, p)) for p in percentiles
    }
