"""All peers' shipped summaries in one store, probed in one pass.

On a local miss a proxy asks "which peers might hold this?" of every
neighbour's summary copy.  Asking N copies one by one is N probes of k
bits each; :class:`PeerSummaries` stores them *sliced the other way*
and answers for all N at once with a **peer bitmask** (bit *j* set:
slot *j*'s copy says "maybe"):

- Bloom summaries: one Python ``int`` *column* per filter position,
  whose bit *j* is peer *j*'s bit at that position.  A probe is the AND
  of the key's k columns -- k operations instead of N x k, stopping
  early once no peer is left.
- Exact-directory and server-name summaries: a ``dict`` from digest or
  name to the mask of peers holding it.  A probe is one lookup.

A :data:`~repro.summaries.backend.SummaryDelta` applies to one slot as
single-bit edits (Section VI-A's absolute set/clear records flip one bit
of one column), so applying a delta twice changes nothing.
``docs/summaries.md`` works a three-peer example through.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.hashing import MD5HashFamily
from repro.errors import BitIndexError, ConfigurationError, SummaryMismatchError
from repro.summaries.backend import (
    SET_KINDS,
    BitFlipDelta,
    DigestDelta,
    DigestKey,
    Geometry,
    LocalSummary,
    SummaryDelta,
)

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
    """The copies a proxy holds of its peers' summaries, probed together.

    Slot *j* is one peer's copy.  It holds none, and answers "no", until
    :meth:`reset_slot` gives it an empty one ("The structure is
    initialized when the first summary update message is received from
    the neighbor"); it then changes only through :meth:`apply_delta`,
    until another :meth:`reset_slot` (a resize) clears it or
    :meth:`drop_slot` discards it.  Build an empty store with
    :meth:`empty`, or one whose slots start as local summaries with
    :meth:`of`.
    """

    __slots__ = ("key_of", "probe")

    #: Derive the probe key of a URL, valid for every slot.  ``key_of``
    #: and ``probe`` are plain attributes, not methods: with one Bloom
    #: geometry ``key_of`` *is* that geometry's position function, and
    #: the hot path pays one call per derivation or probe, not two.  A
    #: change in the set of geometries rebinds both, so a caller holding
    #: them across :meth:`reset_slot` or :meth:`drop_slot` must re-read.
    key_of: Callable[[str], Any]
    #: The mask of slots whose copy may hold a key.
    probe: Callable[[Any], int]
    #: The representation every copy is of (a ``SummaryConfig.kind``).
    kind: str

    @staticmethod
    def empty(kind: str) -> "PeerSummaries":
        """A store of *kind* copies in which no slot holds one yet."""
        if kind == "bloom":
            return _BloomColumns()
        if kind in SET_KINDS:
            return _KeyMasks(kind)
        raise ConfigurationError(f"unknown summary kind {kind!r}")

    @staticmethod
    def of(summaries: Sequence[LocalSummary]) -> "PeerSummaries":
        """A store whose slot *j* starts as ``summaries[j]`` ships whole:
        reset to its geometry, then patched with its ``export()``.

        All summaries must be of one representation.  Bloom summaries
        may differ in geometry (caches of different sizes).
        """
        if not summaries:
            raise ConfigurationError("PeerSummaries needs at least one summary")
        kinds = {summary.kind for summary in summaries}
        if len(kinds) > 1:
            raise ConfigurationError(
                "PeerSummaries cannot mix representations: "
                + ", ".join(sorted(kinds))
            )
        store = PeerSummaries.empty(kinds.pop())
        for slot, summary in enumerate(summaries):
            store.reset_slot(slot, summary.geometry)
            store.apply_delta(slot, summary.export())
        return store

    @abstractmethod
    def geometry(self, slot: int) -> Optional[Geometry]:
        """The geometry of *slot*'s copy; ``None`` while it holds none."""

    @abstractmethod
    def reset_slot(self, slot: int, geometry: Geometry) -> None:
        """Give *slot* an empty copy of *geometry*, discarding any it held.

        Raises :class:`~repro.errors.ConfigurationError`, with nothing
        changed, for a geometry the representation cannot hold.
        """

    @abstractmethod
    def drop_slot(self, slot: int) -> None:
        """Discard *slot*'s copy: it answers "no" until reset again."""

    @abstractmethod
    def apply_delta(self, slot: int, delta: SummaryDelta) -> None:
        """Patch *slot*'s copy with a delivered delta.

        Raises :class:`~repro.errors.SummaryMismatchError` when the
        delta's type does not match the representation, or the slot
        holds no copy.
        """


class _Group:
    """The Bloom copies of one geometry: a column of peer bits per position."""

    __slots__ = ("geometry", "columns", "members", "positions")

    def __init__(self, geometry: Geometry) -> None:
        num_bits, (num_functions, function_bits) = geometry
        if num_bits < 1:
            raise ConfigurationError(f"num_bits must be >= 1, got {num_bits}")
        family = MD5HashFamily.from_spec(num_functions, function_bits)
        self.geometry = geometry
        #: Bit *j* of ``columns[p]`` is member *j*'s bit *p*; a slot
        #: outside the group has 0 in every column.
        self.columns = [0] * num_bits
        self.members = 0
        #: A URL's positions in this geometry: the key of its columns.
        self.positions = partial(family.hashes, table_size=num_bits)


class _BloomColumns(PeerSummaries):
    """Bit-sliced Bloom copies, grouped by geometry.

    Copies of one geometry form a group with its own columns.  With one
    group -- every peer configured alike, the usual case -- a URL's key
    is its positions and a probe is one AND chain.  With several (caches
    of different sizes, or a peer caught between a resize and its
    digest resync) the key holds the URL's positions in each group, in
    the order the groups formed, and a probe ORs the groups' chains.
    A group no slot uses any more is dropped with its columns.
    """

    __slots__ = ("_columns", "_everyone", "_groups", "_homes")

    kind = "bloom"

    def __init__(self) -> None:
        self._groups: Dict[Geometry, _Group] = {}
        #: The group of every slot that holds a copy.
        self._homes: Dict[int, _Group] = {}
        #: The slots that hold a copy.
        self._everyone = 0
        #: The only group's columns (empty unless there is one group).
        self._columns: List[int] = []
        self._rebind()

    def _rebind(self) -> None:
        """Drop unused groups; pick the key and probe for those left."""
        self._groups = {
            geometry: group
            for geometry, group in self._groups.items()
            if group.members
        }
        if len(self._groups) == 1:
            (group,) = self._groups.values()
            self._columns = group.columns
            self.key_of = group.positions
            self.probe = self._probe_one
        else:
            self._columns = []
            self.key_of = self._key_of
            self.probe = self._probe_groups

    def _key_of(self, url: str) -> Tuple[Tuple[int, ...], ...]:
        return tuple([group.positions(url) for group in self._groups.values()])

    def _probe_one(self, key: Sequence[int]) -> int:
        columns = self._columns
        mask = self._everyone
        for column in key:
            mask &= columns[column]
            if not mask:
                return 0
        return mask

    def _probe_groups(self, key: Sequence[Sequence[int]]) -> int:
        found = 0
        for group, positions in zip(self._groups.values(), key):
            columns = group.columns
            mask = group.members
            for position in positions:
                mask &= columns[position]
                if not mask:
                    break
            found |= mask
        return found

    def geometry(self, slot: int) -> Optional[Geometry]:
        group = self._homes.get(slot)
        return None if group is None else group.geometry

    def reset_slot(self, slot: int, geometry: Geometry) -> None:
        # Built before the slot leaves its group: a geometry the hash
        # family rejects changes nothing.
        group = self._groups.get(geometry) or _Group(geometry)
        self._leave(slot)
        self._groups[geometry] = group
        bit = 1 << slot
        group.members |= bit
        self._homes[slot] = group
        self._everyone |= bit
        self._rebind()

    def drop_slot(self, slot: int) -> None:
        self._leave(slot)
        self._everyone &= ~(1 << slot)
        self._rebind()

    def _leave(self, slot: int) -> None:
        """Take *slot*'s bits out of its group's columns."""
        group = self._homes.pop(slot, None)
        if group is None:
            return
        keep = ~(1 << slot)
        group.members &= keep
        if group.members:
            group.columns = [column & keep for column in group.columns]
        else:
            group.columns = [0] * len(group.columns)

    def apply_delta(self, slot: int, delta: SummaryDelta) -> None:
        if not isinstance(delta, BitFlipDelta):
            raise SummaryMismatchError(
                f"bloom summaries cannot apply {type(delta).__name__}"
            )
        group = self._homes.get(slot)
        if group is None:
            raise SummaryMismatchError(f"slot {slot} holds no copy")
        columns = group.columns
        size = len(columns)
        bit = 1 << slot
        for index, value in delta.flips:
            if not 0 <= index < size:
                raise BitIndexError(
                    f"bit index {index} out of range [0, {size})"
                )
            if value:
                columns[index] |= bit
            else:
                columns[index] &= ~bit


class _KeyMasks(PeerSummaries):
    """Digest-set copies (exact directory, server names): key -> peers."""

    __slots__ = ("kind", "_everyone", "_masks")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.key_of = SET_KINDS[kind]
        self.probe = self._probe
        self._masks: Dict[DigestKey, int] = {}
        #: The slots that hold a copy.
        self._everyone = 0

    def _probe(self, key: DigestKey) -> int:
        return self._masks.get(key, 0)

    def geometry(self, slot: int) -> Optional[Geometry]:
        return () if self._everyone >> slot & 1 else None

    def reset_slot(self, slot: int, geometry: Geometry) -> None:
        if geometry != ():
            raise ConfigurationError(
                f"{self.kind} copies have no geometry, got {geometry!r}"
            )
        self._clear(slot)
        self._everyone |= 1 << slot

    def drop_slot(self, slot: int) -> None:
        self._clear(slot)
        self._everyone &= ~(1 << slot)

    def _clear(self, slot: int) -> None:
        keep = ~(1 << slot)
        self._masks = {
            key: rest
            for key, mask in self._masks.items()
            if (rest := mask & keep)
        }

    def apply_delta(self, slot: int, delta: SummaryDelta) -> None:
        if not isinstance(delta, DigestDelta):
            raise SummaryMismatchError(
                f"digest-set summaries cannot apply {type(delta).__name__}"
            )
        if not self._everyone >> slot & 1:
            raise SummaryMismatchError(f"slot {slot} holds no copy")
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
