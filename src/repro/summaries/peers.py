"""All peers' shipped summaries in one store, probed in one pass.

On a local miss a proxy asks "which peers might hold this?" of every
neighbour's summary copy.  Asking N copies one by one is N probes of k
bits each; the simulators' N copies all share one configuration, so
:class:`PeerSummaries` stores them *sliced the other way* and answers
for all N at once with a **peer bitmask** (bit *j* set: slot *j*'s
copy says "maybe"):

- Bloom summaries: one Python ``int`` *column* per filter position,
  whose bit *j* is peer *j*'s bit at that position.  A probe is the AND
  of the key's k columns -- k operations instead of N x k, stopping
  early once no peer is left.
- Exact-directory and server-name summaries: a ``dict`` from digest or
  name to the mask of peers holding it.  A probe is one lookup.

A :data:`~repro.summaries.backend.SummaryDelta` applies to one slot as
single-bit edits (Section VI-A's absolute set/clear records flip one bit
of one column), so the delta types, their byte accounting and the wire
format are exactly those of the per-peer
:class:`~repro.summaries.backend.RemoteSummary` copies the live proxy
keeps -- and applying a delta twice changes nothing.

``docs/summaries.md`` works a three-peer example through.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import (
    BitIndexError,
    ConfigurationError,
    SummaryMismatchError,
)
from repro.summaries.backend import (
    BitFlipDelta,
    DigestDelta,
    DigestKey,
    DigestSetRemote,
    LocalSummary,
    SummaryDelta,
)
from repro.summaries.bloom import BloomSummary

__all__ = ["PeerSummaries", "slots_of"]


def slots_of(mask: int) -> List[int]:
    """The slots set in a peer bitmask, in ascending order."""
    slots = []
    while mask:
        low = mask & -mask
        slots.append(low.bit_length() - 1)
        mask ^= low
    return slots


class PeerSummaries(ABC):
    """The copies peers hold of N proxies' summaries, probed together.

    Slot *j* is the copy of proxy *j*'s summary that its peers
    currently hold; it changes only through :meth:`apply_delta`.  Build
    one with :meth:`of`.
    """

    __slots__ = ("key_of",)

    #: Derive the probe key of a URL, valid for every slot.  A plain
    #: attribute, not a method: wherever one summary's own ``key_of``
    #: will do, it *is* that bound method, and the hot path pays one
    #: call per derivation, not two.
    key_of: Callable[[str], Any]

    @staticmethod
    def of(summaries: Sequence[LocalSummary]) -> "PeerSummaries":
        """A store whose slot *j* starts as ``summaries[j].export()``.

        All summaries must be of one representation.  Bloom summaries
        may differ in geometry (caches of different sizes).
        """
        if not summaries:
            raise ConfigurationError("PeerSummaries needs at least one summary")
        kinds = {type(summary) for summary in summaries}
        if len(kinds) > 1:
            raise ConfigurationError(
                "PeerSummaries cannot mix representations: "
                + ", ".join(sorted(kind.__name__ for kind in kinds))
            )
        blooms = [s for s in summaries if isinstance(s, BloomSummary)]
        return _BloomColumns(blooms) if blooms else _KeyMasks(summaries)

    @abstractmethod
    def probe(self, key: Any) -> int:
        """The mask of slots whose copy may hold *key*."""

    @abstractmethod
    def apply_delta(self, slot: int, delta: SummaryDelta) -> None:
        """Patch slot *slot*'s copy with a delivered delta.

        Raises :class:`~repro.errors.SummaryMismatchError` when the
        delta's type does not match the representation.
        """


class _BloomColumns(PeerSummaries):
    """Bit-sliced Bloom copies: one column of peer bits per position.

    Filters of one geometry form a *group* sharing a run of columns;
    the key of a URL lists its positions in every group.  In a group's
    columns the bits of peers outside the group are held at 1, so they
    pass through its ANDs untouched and a probe stays one AND chain
    however many geometries there are (one, unless capacities differ).
    """

    __slots__ = ("_columns", "_everyone", "_groups", "_offsets", "_sizes")

    def __init__(self, summaries: Sequence[BloomSummary]) -> None:
        self._everyone = (1 << len(summaries)) - 1
        members: Dict[Tuple[int, Tuple[int, int]], List[int]] = {}
        for slot, summary in enumerate(summaries):
            geometry = (summary.num_bits, summary.hash_family.spec())
            members.setdefault(geometry, []).append(slot)
        self._columns: List[int] = []
        #: ``(first column, a member to derive positions with)`` per group.
        self._groups: List[Tuple[int, BloomSummary]] = []
        #: Per slot: its group's first column, and its filter's size.
        self._offsets = [0] * len(summaries)
        self._sizes = [summary.num_bits for summary in summaries]
        for (num_bits, _), slots in members.items():
            offset = len(self._columns)
            self._groups.append((offset, summaries[slots[0]]))
            outside = self._everyone
            for slot in slots:
                outside ^= 1 << slot
                self._offsets[slot] = offset
            self._columns += [outside] * num_bits
        # One geometry: the positions themselves, which the position
        # cache already holds -- no second tuple per URL.
        self.key_of = (
            summaries[0].key_of if len(self._groups) == 1 else self._key_of
        )
        for slot, summary in enumerate(summaries):
            held = summary.export().filter.bits.iter_set_bits()
            self.apply_delta(
                slot, BitFlipDelta(flips=[(index, True) for index in held])
            )

    def _key_of(self, url: str) -> Tuple[int, ...]:
        key: List[int] = []
        for offset, summary in self._groups:
            for position in summary.key_of(url):
                key.append(offset + position)
        return tuple(key)

    def probe(self, key: Sequence[int]) -> int:
        columns = self._columns
        mask = self._everyone
        for column in key:
            mask &= columns[column]
            if not mask:
                return 0
        return mask

    def apply_delta(self, slot: int, delta: SummaryDelta) -> None:
        if not isinstance(delta, BitFlipDelta):
            raise SummaryMismatchError(
                f"bloom summaries cannot apply {type(delta).__name__}"
            )
        columns = self._columns
        offset = self._offsets[slot]
        size = self._sizes[slot]
        bit = 1 << slot
        for index, value in delta.flips:
            if not 0 <= index < size:
                raise BitIndexError(
                    f"bit index {index} out of range [0, {size})"
                )
            if value:
                columns[offset + index] |= bit
            else:
                columns[offset + index] &= ~bit


class _KeyMasks(PeerSummaries):
    """Digest-set copies (exact directory, server names): key -> peers."""

    __slots__ = ("_masks",)

    def __init__(self, summaries: Sequence[LocalSummary]) -> None:
        self._masks: Dict[DigestKey, int] = {}
        self.key_of = summaries[0].key_of
        for slot, summary in enumerate(summaries):
            copy = summary.export()
            if not isinstance(copy, DigestSetRemote):
                raise ConfigurationError(
                    f"no shared store for {type(summary).__name__} copies"
                )
            self.apply_delta(slot, DigestDelta(added=list(copy)))

    def probe(self, key: DigestKey) -> int:
        return self._masks.get(key, 0)

    def apply_delta(self, slot: int, delta: SummaryDelta) -> None:
        if not isinstance(delta, DigestDelta):
            raise SummaryMismatchError(
                f"digest-set summaries cannot apply {type(delta).__name__}"
            )
        masks = self._masks
        bit = 1 << slot
        for key in delta.removed:
            rest = masks.get(key, 0) & ~bit
            if rest:
                masks[key] = rest
            else:
                masks.pop(key, None)
        for key in delta.added:
            masks[key] = masks.get(key, 0) | bit
