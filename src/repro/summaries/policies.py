"""Update policies: when a proxy ships its pending summary changes.

The paper studies three triggers (Sections V-A and VI-B):

- :class:`ThresholdUpdatePolicy` -- ship when the fraction of cached
  documents not yet reflected in the shipped summary reaches a
  threshold (the paper's main design, studied at 0.1%..10% in Fig. 2);
- :class:`IntervalUpdatePolicy` -- ship every fixed interval (the
  alternative Section V-A mentions);
- :class:`PacketFillUpdatePolicy` -- ship once the pending change
  records fill one IP packet (the Squid prototype's behaviour).

Each policy answers ``due(node, now, cached_documents)`` -- is an
update of :class:`~repro.summaries.backend.SummaryNode` *node* due at
time *now*, with *cached_documents* in the cache -- and reads only the
one counter its trigger needs: the threshold ``node.new_since_update``,
the interval ``node.last_update_time``, and the packet fill the local
summary's pending change count.

A threshold of 0 means no update delay at all: the Section V simulator
treats it as "peers probe the live directory" (the top line of Fig. 2),
while the live proxy ships an update after every insert -- the closest
a real wire protocol can get to that ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.errors import ConfigurationError
from repro.protocol.update import FLIPS_PER_MESSAGE

if TYPE_CHECKING:  # backend imports this module for UpdatePolicy
    from repro.summaries.backend import SummaryNode


@dataclass(frozen=True)
class ThresholdUpdatePolicy:
    """Ship an update when new-document fraction reaches *threshold*.

    "the update can occur ... when a certain percentage of the cached
    documents are not reflected in the summary."  A threshold of 0
    disables delay entirely.
    """

    threshold: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in [0, 1], got {self.threshold}"
            )

    @property
    def live(self) -> bool:
        """True when the policy means "no update delay" (threshold 0)."""
        return self.threshold == 0.0

    def due(
        self, node: SummaryNode, now: float, cached_documents: int
    ) -> bool:
        new = node.new_since_update
        if self.threshold == 0.0:
            return new > 0
        return new / max(1, cached_documents) >= self.threshold

    def label(self) -> str:
        return f"threshold={self.threshold:g}"


@dataclass(frozen=True)
class IntervalUpdatePolicy:
    """Ship an update every *interval* seconds."""

    interval: float = 300.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(
                f"interval must be > 0, got {self.interval}"
            )

    def due(
        self, node: SummaryNode, now: float, cached_documents: int
    ) -> bool:
        return now - node.last_update_time >= self.interval

    def label(self) -> str:
        return f"interval={self.interval:g}s"


@dataclass(frozen=True)
class PacketFillUpdatePolicy:
    """Ship an update once pending changes fill one IP packet.

    The Squid prototype's behaviour: "sends updates whenever there are
    enough changes to fill an IP packet" (Section VI-B).  The default
    is the flip records of one MTU-sized DIRUPDATE, 342.
    """

    records: int = FLIPS_PER_MESSAGE

    def __post_init__(self) -> None:
        if self.records < 1:
            raise ConfigurationError(
                f"records must be >= 1, got {self.records}"
            )

    def due(
        self, node: SummaryNode, now: float, cached_documents: int
    ) -> bool:
        return node.local.pending_change_count() >= self.records

    def label(self) -> str:
        return f"packet-fill={self.records}"


UpdatePolicy = Union[
    ThresholdUpdatePolicy, IntervalUpdatePolicy, PacketFillUpdatePolicy
]


def parse_update_policy(spec: str) -> UpdatePolicy:
    """Parse a CLI/config policy spec into a policy instance.

    Accepted forms: ``threshold:0.01``, ``interval:300``,
    ``packet-fill:342`` -- or the bare names for the defaults.
    """
    name, _sep, arg = spec.partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    try:
        if name == "threshold":
            return (
                ThresholdUpdatePolicy(float(arg))
                if arg
                else ThresholdUpdatePolicy()
            )
        if name == "interval":
            return (
                IntervalUpdatePolicy(float(arg))
                if arg
                else IntervalUpdatePolicy()
            )
        if name == "packet-fill":
            return (
                PacketFillUpdatePolicy(int(arg))
                if arg
                else PacketFillUpdatePolicy()
            )
    except ValueError as exc:
        raise ConfigurationError(
            f"bad update-policy argument in {spec!r}: {exc}"
        ) from None
    raise ConfigurationError(
        f"unknown update policy {spec!r}; expected "
        "'threshold[:FRACTION]', 'interval[:SECONDS]', or "
        "'packet-fill[:RECORDS]'"
    )
