"""The unified summary backend layer.

One package owns everything about summaries -- the representations the
paper compares (Section V), the update policies that govern when changes
ship (Sections V-A, VI-B), and the codec that puts representation-tagged
deltas on the wire (Section VI-A) -- so the Section V simulator, the
wire protocol, and the live asyncio proxy all consume the same classes:

- :mod:`repro.summaries.backend` -- the :class:`LocalSummary` ABC,
  :class:`SummaryConfig` (and :func:`summary_config_for_repr`, its
  ``--summary-repr`` CLI names), delta types, the
  :func:`make_local_summary` factory, and :class:`SummaryNode` (shared
  update bookkeeping);
- :mod:`repro.summaries.keyset` -- the set representations
  (exact directory, server names): one class, told apart by kind;
- :mod:`repro.summaries.bloom` -- the Bloom representation;
- :mod:`repro.summaries.peers` -- :class:`PeerSummaries`, every peer's
  shipped copy in one bit-sliced store, probed in one pass (all three
  engines);
- :mod:`repro.summaries.policies` -- threshold / interval / packet-fill
  update policies;
- :mod:`repro.summaries.codec` -- representation-tagged delta and
  digest encode/decode against :mod:`repro.protocol`.
"""

from repro.summaries.backend import (
    AVERAGE_DOCUMENT_SIZE,
    SUMMARY_REPR_KINDS,
    BitFlipDelta,
    DigestDelta,
    LocalSummary,
    SummaryConfig,
    SummaryNode,
    expected_documents_for_cache,
    make_local_summary,
    summary_config_for_repr,
)
from repro.summaries.bloom import BloomSummary
from repro.summaries.peers import PeerSummaries, slots_of
from repro.summaries.policies import (
    IntervalUpdatePolicy,
    PacketFillUpdatePolicy,
    ThresholdUpdatePolicy,
    UpdatePolicy,
    parse_update_policy,
)

__all__ = [
    "AVERAGE_DOCUMENT_SIZE",
    "SUMMARY_REPR_KINDS",
    "BitFlipDelta",
    "BloomSummary",
    "DigestDelta",
    "IntervalUpdatePolicy",
    "LocalSummary",
    "PacketFillUpdatePolicy",
    "PeerSummaries",
    "SummaryConfig",
    "SummaryNode",
    "ThresholdUpdatePolicy",
    "UpdatePolicy",
    "expected_documents_for_cache",
    "make_local_summary",
    "parse_update_policy",
    "slots_of",
    "summary_config_for_repr",
]
