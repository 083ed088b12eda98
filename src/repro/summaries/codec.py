"""Representation-tagged encode/decode between summaries and the wire.

The wire protocol tags every ``ICP_OP_DIRUPDATE`` with a representation
id (see :mod:`repro.protocol.wire`); this module is the single place
that maps between those ids, the ``SummaryConfig.kind`` names
(:data:`KIND_TO_REPRESENTATION`), and their delta payloads, so the
proxy never dispatches on concrete summary types:

- :func:`ships_whole` -- Section VI's encoding rule: flip records or
  the whole bit array, whichever is smaller;
- :func:`update_messages` -- the messages one update travels in, chosen
  by that rule (the live proxy sends them, the DES prices them);
- :func:`delta_messages` -- turn a drained delta into MTU-sized
  datagrams for whatever representation the local summary uses;
- :func:`whole_summary_messages` -- the whole-summary transfer (Bloom
  only: ``ICP_OP_DIGEST`` chunks);
- :func:`apply_update` / :func:`apply_digest` -- patch (or initialize)
  a peer's slot of a :class:`~repro.summaries.peers.PeerSummaries` from
  a received DIRUPDATE or DIGEST chunk, rejecting one that does not
  match the store's representation or the copy's geometry, or that
  announces more than :data:`~repro.summaries.backend.MAX_SUMMARY_BITS`
  bits, with :class:`~repro.errors.SummaryMismatchError`.

A set summary's records are tagged with the id of its ``kind``; the
codec imports no set summary class.  Only :class:`BloomSummary` is told
apart by class: its flips need the filter's hash family, and its whole
array has a wire form of its own.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.bitarray import BitArray
from repro.errors import ConfigurationError, SummaryMismatchError
from repro.protocol.update import (
    DigestAssembler,
    build_digest_messages,
    build_dir_update_messages,
    build_set_update_messages,
)
from repro.protocol.wire import (
    FLIP_RECORD_BYTES,
    REPR_BLOOM,
    REPR_EXACT,
    REPR_SERVER_NAME,
    DigestChunk,
    DirUpdate,
    SetDirUpdate,
)
from repro.summaries.backend import (
    MAX_SUMMARY_BITS,
    BitFlipDelta,
    DigestDelta,
    DigestKey,
    Geometry,
    LocalSummary,
    SummaryDelta,
)
from repro.summaries.bloom import BloomSummary
from repro.summaries.peers import PeerSummaries

#: SummaryConfig.kind <-> wire representation id.
KIND_TO_REPRESENTATION: Dict[str, int] = {
    "bloom": REPR_BLOOM,
    "exact-directory": REPR_EXACT,
    "server-name": REPR_SERVER_NAME,
}
REPRESENTATION_TO_KIND = {v: k for k, v in KIND_TO_REPRESENTATION.items()}

UpdateMessage = Union[DirUpdate, SetDirUpdate]


def representation_kind(rep_id: int) -> str:
    """The ``SummaryConfig.kind`` for a wire representation id."""
    try:
        return REPRESENTATION_TO_KIND[rep_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown representation id {rep_id}"
        ) from None


def _encode_record(record: DigestKey) -> bytes:
    """One delta record as wire bytes (digests pass through, names UTF-8)."""
    if isinstance(record, bytes):
        return record
    return record.encode("utf-8")


def _decode_records(
    representation: int, records: Iterable[bytes]
) -> List[DigestKey]:
    """Wire records back to summary keys (names decode to ``str``)."""
    if representation == REPR_SERVER_NAME:
        return [record.decode("utf-8") for record in records]
    return list(records)


def ships_whole(change_count: int, num_bits: int) -> bool:
    """Whether an update of *change_count* bit flips ships as the whole
    *num_bits* array: "the proxy can either specify which bits in the
    bit array are flipped, or send the whole array, whichever is
    smaller" (Section VI).  On a tie the flips go."""
    return FLIP_RECORD_BYTES * change_count > (num_bits + 7) // 8


def update_messages(
    summary: LocalSummary, delta: SummaryDelta
) -> Sequence[Union[UpdateMessage, DigestChunk]]:
    """The datagrams that carry one update of *summary* to a peer.

    A Bloom *delta* whose flips outweigh the bit array (:func:`ships_whole`)
    travels as DIGEST chunks, every other delta as DIRUPDATEs.  Set
    representations always ship their delta.
    """
    if isinstance(summary, BloomSummary) and ships_whole(
        delta.change_count, summary.num_bits
    ):
        return whole_summary_messages(summary)
    return delta_messages(summary, delta)


def delta_messages(
    summary: LocalSummary, delta: SummaryDelta
) -> List[UpdateMessage]:
    """Batch a drained *delta* into DIRUPDATE datagrams for *summary*."""
    if isinstance(summary, BloomSummary):
        if not isinstance(delta, BitFlipDelta):
            raise ConfigurationError(
                f"Bloom summary cannot ship a {type(delta).__name__}"
            )
        return build_dir_update_messages(
            delta.flips, summary.hash_family, summary.num_bits
        )
    if not isinstance(delta, DigestDelta):
        raise ConfigurationError(
            f"set summary cannot ship a {type(delta).__name__}"
        )
    return build_set_update_messages(
        KIND_TO_REPRESENTATION[summary.kind],
        [_encode_record(r) for r in delta.added],
        [_encode_record(r) for r in delta.removed],
    )


def whole_summary_messages(summary: LocalSummary) -> List[DigestChunk]:
    """Whole-summary transfer (the resync after
    :meth:`~repro.summaries.backend.SummaryNode.grow`, or a delta larger
    than the array).

    Only Bloom summaries have a whole-summary wire form
    (``ICP_OP_DIGEST``): a set summary's geometry never changes, so its
    deltas always describe it.
    """
    if isinstance(summary, BloomSummary):
        return build_digest_messages(
            summary.counters.bits.to_bytes(),
            summary.hash_family,
            summary.num_bits,
        )
    raise ConfigurationError(
        "whole-summary digest transfers are defined for Bloom summaries "
        f"only, not {type(summary).__name__}"
    )


def apply_update(
    store: PeerSummaries, slot: int, update: UpdateMessage
) -> None:
    """Patch *slot*'s copy in *store* with a received (Set)DirUpdate.

    A slot with no copy yet is first given an empty one of the geometry
    the update announces.  An update of another representation than the
    store's, over the size bound, or a Bloom delta whose geometry
    differs from the copy's (the peer resized and this datagram
    predates the digest resync), raises
    :class:`~repro.errors.SummaryMismatchError` before anything
    changes: the peer needs a whole-summary resynchronization.
    """
    geometry = _announced(store, update)
    delta: SummaryDelta
    if isinstance(update, SetDirUpdate):
        delta = DigestDelta(
            added=_decode_records(update.representation, update.added),
            removed=_decode_records(update.representation, update.removed),
        )
    else:
        delta = BitFlipDelta(flips=list(update.flips))
    _prepare(store, slot, geometry, reset=False)
    store.apply_delta(slot, delta)


def apply_digest(
    store: PeerSummaries,
    slot: int,
    assembler: DigestAssembler,
    chunk: DigestChunk,
) -> Optional[Geometry]:
    """Feed a received DIGEST *chunk* to *slot*'s *assembler*; once the
    transfer is whole, replace *slot*'s copy with it and return its
    geometry (``None`` until then).

    Every chunk's header is checked before it is buffered, so a
    transfer a DIRUPDATE with that header would be rejected for is
    rejected on its first chunk.  Bits past ``num_bits`` in the last
    byte are ignored.
    """
    _announced(store, chunk)
    whole = assembler.add(chunk)
    if whole is None:
        return None
    geometry, data = whole
    _prepare(store, slot, geometry, reset=True)
    held = BitArray.from_bytes(geometry[0], data).iter_set_bits()
    store.apply_delta(slot, BitFlipDelta(flips=[(i, True) for i in held]))
    return geometry


def _announced(
    store: PeerSummaries, message: Union[UpdateMessage, DigestChunk]
) -> Geometry:
    """The one check of what a received header announces, made before
    anything is built or buffered: the representation is the store's,
    and a Bloom array is at most :data:`MAX_SUMMARY_BITS` bits.
    Returns the announced geometry.  The hash family is checked where a
    copy of it is built (:meth:`PeerSummaries.reset_slot`).
    """
    geometry: Geometry
    if isinstance(message, SetDirUpdate):
        kind, bits, geometry = representation_kind(message.representation), 0, ()
    else:
        kind, bits = "bloom", message.bit_array_size
        geometry = (bits, (message.function_num, message.function_bits))
    if kind != store.kind:
        raise SummaryMismatchError(f"{kind} summary for a store of {store.kind} copies")
    if bits > MAX_SUMMARY_BITS:
        raise SummaryMismatchError(f"{bits} bits announced, over the {MAX_SUMMARY_BITS} bound")
    return geometry


def _prepare(
    store: PeerSummaries, slot: int, geometry: Geometry, reset: bool
) -> None:
    """Check an announced *geometry* against *slot*'s copy; reset the
    slot to it when *reset* is set or it holds no copy yet."""
    held = store.geometry(slot)
    if reset or held is None:
        try:
            store.reset_slot(slot, geometry)
        except ConfigurationError as exc:
            raise SummaryMismatchError(f"unusable geometry: {exc}") from exc
    elif held != geometry:
        raise SummaryMismatchError(
            f"geometry mismatch: message specifies {geometry} "
            f"(bits, (functions, function bits)) but the copy is {held}"
        )
