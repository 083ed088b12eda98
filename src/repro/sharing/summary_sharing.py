"""The summary cache simulator (Section V) and the ICP message baseline.

Each proxy maintains:

- its document cache (:class:`repro.cache.WebCache`);
- a **local summary** of its own directory, updated on every insert and
  evict via cache callbacks.

The copies peers hold of those summaries -- the *shipped* summaries --
live in one :class:`~repro.summaries.PeerSummaries` for the whole run.
The simulation assumes updates reach all peers reliably and atomically
(the paper's simulation assumption), so one slot per proxy stands in
for the n-1 identical peer copies.

On a local miss, the requesting proxy probes all shipped summaries at
once and queries exactly the peers whose summaries say "maybe"
(sending one query and receiving one reply per queried peer).  The
four outcome classes of Section V -- remote hit, false hit, false miss,
remote stale hit -- are tallied along with message counts and bytes
under the paper's size model (:mod:`repro.sharing.messages`).

Update dissemination is governed by an update policy from
:mod:`repro.summaries.policies` (threshold / interval / packet-fill).
A threshold of 0 means peers always see the live directory (the "no
update delay" top line of Fig. 2): every change is delivered at once,
and no update message is counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sharing.engine import _replay
from repro.sharing.results import SharingResult
from repro.sharing.schemes import Capacity, resolve_capacities
from repro.summaries import (
    AVERAGE_DOCUMENT_SIZE,
    SummaryConfig,
    ThresholdUpdatePolicy,
    UpdatePolicy,
)
from repro.traces.partition import TraceLike

__all__ = [
    "SummarySharingConfig",
    "simulate_icp",
    "simulate_summary_sharing",
]


@dataclass(frozen=True)
class SummarySharingConfig:
    """Configuration of one summary cache simulation."""

    summary: SummaryConfig = field(default_factory=SummaryConfig)
    update_policy: UpdatePolicy = field(
        default_factory=ThresholdUpdatePolicy
    )
    policy: str = "lru"
    #: Average cacheable document size used to size Bloom filters
    #: (cache bytes / doc size = expected documents).  The paper divides
    #: by 8 KB; heavy-tailed synthetic workloads should pass their
    #: actual mean cacheable size (:func:`repro.traces.stats.
    #: mean_cacheable_size`) or the effective load factor degrades.
    expected_doc_size: int = AVERAGE_DOCUMENT_SIZE

    def label(self) -> str:
        return f"{self.summary.label()}/{self.update_policy.label()}"


def simulate_summary_sharing(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: Capacity,
    config: Optional[SummarySharingConfig] = None,
) -> SharingResult:
    """Run the summary cache protocol over *trace*.

    Returns a :class:`~repro.sharing.results.SharingResult` with the full
    hit taxonomy, message counts, and summary memory footprint.
    *capacity_per_proxy* may be one size for all proxies or a per-proxy
    sequence (proportional allocation under load imbalance).

    *trace* may be a materialized :class:`~repro.traces.model.Trace`, an
    mmap-backed :class:`~repro.traces.binary.BinaryTraceReader`, or any
    request iterable; the replay reads it once, one record at a time,
    so a streamed trace is never resident in memory.  Counters are bit-exact
    across all three for the same request stream.
    """
    cfg = config or SummarySharingConfig()
    return _replay(
        trace,
        f"summary/{cfg.label()}",
        resolve_capacities(num_proxies, capacity_per_proxy),
        ask="summaries",
        messages="summary",
        summary=cfg,
    )[0]


def simulate_icp(
    trace: TraceLike,
    num_proxies: int,
    capacity_per_proxy: Capacity,
    policy: str = "lru",
) -> SharingResult:
    """Simple sharing with ICP's message pattern.

    "Every time one proxy has a cache miss, everyone else receives and
    processes a query message" -- each local miss multicasts a query to
    all n-1 peers, and each peer replies.
    """
    return _replay(
        trace,
        "icp",
        resolve_capacities(num_proxies, capacity_per_proxy),
        policy=policy,
        ask="all",
        messages="icp",
    )[0]
