"""Building summary update messages and reassembling digests.

The prototype "sends updates whenever there are enough changes to fill
an IP packet" (Section VI-B): :func:`build_dir_update_messages` batches
a flip list into MTU-sized ``DirUpdate`` messages.  Records are
absolute set/clear operations, so replaying one is idempotent; a lost
or late update still leaves a peer's copy wrong until those bits are
named again (``docs/wire-protocol.md`` §4.1).

:func:`build_digest_messages` and :class:`DigestAssembler` implement the
whole-filter alternative (Squid's cache digests), used when an update's
flips outweigh the array (:func:`repro.summaries.codec.ships_whole`) or
a peer needs a full resynchronization (e.g. after a resize).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bloom import BloomFilter
from repro.core.hashing import MD5HashFamily
from repro.errors import ConfigurationError, SummaryMismatchError
from repro.protocol.wire import (
    DIGEST_HEADER_SIZE,
    DIRUPDATE_HEADER_SIZE,
    FLIP_RECORD_BYTES,
    ICP_HEADER_SIZE,
    SET_UPDATE_HEADER_SIZE,
    DigestChunk,
    DirUpdate,
    SetDirUpdate,
    _set_record_size,
)

#: Every update datagram's byte budget: a conservative Ethernet-path MTU.
MTU = 1400

#: Flip records in one full DIRUPDATE: ``(1400 - 32) // 4`` = 342.
FLIPS_PER_MESSAGE = (
    MTU - ICP_HEADER_SIZE - DIRUPDATE_HEADER_SIZE
) // FLIP_RECORD_BYTES


def build_dir_update_messages(
    flips: Sequence[Tuple[int, bool]],
    hash_family: MD5HashFamily,
    bit_array_size: int,
) -> List[DirUpdate]:
    """Batch *flips* into ``DirUpdate`` messages of at most :data:`MTU`
    bytes.

    Every message repeats the full hash-specification header so each is
    independently verifiable.
    """
    num, bits = hash_family.spec()
    messages = []
    for start in range(0, len(flips), FLIPS_PER_MESSAGE):
        batch = tuple(flips[start : start + FLIPS_PER_MESSAGE])
        messages.append(
            DirUpdate(
                function_num=num,
                function_bits=bits,
                bit_array_size=bit_array_size,
                flips=batch,
            )
        )
    return messages


def build_set_update_messages(
    representation: int,
    added: Sequence[bytes],
    removed: Sequence[bytes],
) -> List[SetDirUpdate]:
    """Batch set-delta records into ``SetDirUpdate`` messages under
    :data:`MTU`.

    The counterpart of :func:`build_dir_update_messages` for the
    exact-directory and server-name representations: *added* and
    *removed* are already-encoded records (16-byte digests, or UTF-8
    names), split greedily so each datagram stays within the byte
    budget.  Records keep their added/removed polarity across message
    boundaries.  A record larger than the budget (a server name comes
    from a client's URL) travels alone in its own datagram, whatever
    else the delta holds: every message is at most :data:`MTU` bytes
    or carries exactly one record.
    """
    budget = MTU - ICP_HEADER_SIZE - SET_UPDATE_HEADER_SIZE
    tagged = [(record, True) for record in added] + [
        (record, False) for record in removed
    ]
    messages = []
    batch_added: List[bytes] = []
    batch_removed: List[bytes] = []
    used = 0
    for record, is_add in tagged:
        cost = _set_record_size(representation, record)
        if used + cost > budget and (batch_added or batch_removed):
            messages.append(
                SetDirUpdate(
                    representation=representation,
                    added=tuple(batch_added),
                    removed=tuple(batch_removed),
                )
            )
            batch_added, batch_removed, used = [], [], 0
        (batch_added if is_add else batch_removed).append(record)
        used += cost
    if batch_added or batch_removed:
        messages.append(
            SetDirUpdate(
                representation=representation,
                added=tuple(batch_added),
                removed=tuple(batch_removed),
            )
        )
    return messages


def build_digest_messages(
    data: bytes,
    hash_family: MD5HashFamily,
    bit_array_size: int,
) -> List[DigestChunk]:
    """Chunk a whole bit array, packed as *data*, into ``DigestChunk``
    messages of at most :data:`MTU` bytes, each stamped with the
    snapshot's CRC-32 (see :class:`DigestChunk`).
    """
    per_chunk = MTU - ICP_HEADER_SIZE - DIGEST_HEADER_SIZE
    snapshot = zlib.crc32(data)
    num, bits = hash_family.spec()
    return [
        DigestChunk(
            function_num=num,
            function_bits=bits,
            bit_array_size=bit_array_size,
            byte_offset=offset,
            total_bytes=len(data),
            payload=data[offset : offset + per_chunk],
            request_number=snapshot,
        )
        for offset in range(0, len(data), per_chunk)
    ]


class DigestAssembler:
    """Reassembles a peer's filter from ``DigestChunk`` messages.

    Chunks may arrive out of order or duplicated; a chunk of another
    snapshot (its geometry or its CRC-32 differs) restarts assembly, so
    a transfer that lost a chunk is dropped rather than completed with
    the next transfer's bytes.
    """

    def __init__(self) -> None:
        self._spec: Optional[Tuple[int, int, int, int, int]] = None
        self._pieces: Dict[int, bytes] = {}

    def add(self, chunk: DigestChunk) -> Optional[BloomFilter]:
        """Feed one chunk; return the completed filter or ``None``.

        A completed transfer whose hash family cannot be built (a
        ``Function_Bits`` above 64) raises
        :class:`~repro.errors.SummaryMismatchError`, as the same header
        on a DIRUPDATE does when it is applied.
        """
        spec = (
            chunk.function_num,
            chunk.function_bits,
            chunk.bit_array_size,
            chunk.total_bytes,
            chunk.request_number,
        )
        if self._spec != spec:
            self._spec = spec
            self._pieces = {}
        self._pieces[chunk.byte_offset] = chunk.payload

        received = sum(len(p) for p in self._pieces.values())
        if received < chunk.total_bytes:
            return None

        data = bytearray(chunk.total_bytes)
        covered = 0
        for offset in sorted(self._pieces):
            piece = self._pieces[offset]
            data[offset : offset + len(piece)] = piece
            covered += len(piece)
        if covered != chunk.total_bytes:
            return None  # duplicates overlapped; wait for real coverage

        self._spec = None
        self._pieces = {}
        try:
            family = MD5HashFamily.from_spec(
                chunk.function_num, chunk.function_bits
            )
        except ConfigurationError as exc:
            # Rejected as a DIRUPDATE announcing it would be (codec's
            # geometry check): the header is well formed, the family not.
            raise SummaryMismatchError(f"unusable geometry: {exc}") from exc
        return BloomFilter.from_bytes(
            chunk.bit_array_size, bytes(data), hash_family=family
        )
