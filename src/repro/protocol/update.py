"""Building summary update messages and reassembling digests.

The prototype "sends updates whenever there are enough changes to fill
an IP packet" (Section VI-B): :func:`build_dir_update_messages` batches
a flip list into MTU-sized ``DirUpdate`` messages.  Because records are
absolute set/clear operations, message loss degrades a peer's copy
gracefully instead of corrupting it, and replay is idempotent.

:func:`build_digest_messages` and :class:`DigestAssembler` implement the
whole-filter alternative (Squid's cache digests), used when an update's
flips outweigh the array (:func:`repro.summaries.codec.ships_whole`) or
a peer needs a full resynchronization (e.g. after a resize).
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bloom import BloomFilter
from repro.core.counting_bloom import CountingBloomFilter
from repro.core.hashing import MD5HashFamily
from repro.errors import ProtocolError
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

#: A conservative Ethernet-path MTU for UDP payload sizing.
DEFAULT_MTU = 1400


def build_dir_update_messages(
    flips: Sequence[Tuple[int, bool]],
    hash_family: MD5HashFamily,
    bit_array_size: int,
    mtu: int = DEFAULT_MTU,
) -> List[DirUpdate]:
    """Batch *flips* into ``DirUpdate`` messages no larger than *mtu* bytes.

    Every message repeats the full hash-specification header so each is
    independently verifiable (and the stream tolerates loss).
    """
    overhead = ICP_HEADER_SIZE + DIRUPDATE_HEADER_SIZE
    if mtu <= overhead + FLIP_RECORD_BYTES:
        raise ProtocolError(
            f"mtu of {mtu} bytes cannot carry any flip records "
            f"(fixed overhead is {overhead} bytes)"
        )
    per_message = (mtu - overhead) // FLIP_RECORD_BYTES
    num, bits = hash_family.spec()
    messages = []
    for start in range(0, len(flips), per_message):
        batch = tuple(flips[start : start + per_message])
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
    mtu: int = DEFAULT_MTU,
) -> List[SetDirUpdate]:
    """Batch set-delta records into ``SetDirUpdate`` messages under *mtu*.

    The counterpart of :func:`build_dir_update_messages` for the
    exact-directory and server-name representations: *added* and
    *removed* are already-encoded records (16-byte digests, or UTF-8
    names), split greedily so each datagram stays within the byte
    budget.  Records keep their added/removed polarity across message
    boundaries.
    """
    overhead = ICP_HEADER_SIZE + SET_UPDATE_HEADER_SIZE
    budget = mtu - overhead
    tagged = [(record, True) for record in added] + [
        (record, False) for record in removed
    ]
    if tagged:
        smallest = min(_set_record_size(representation, r) for r, _ in tagged)
        if budget < smallest:
            raise ProtocolError(
                f"mtu of {mtu} bytes cannot carry any set-delta records "
                f"(fixed overhead is {overhead} bytes)"
            )
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
    source: CountingBloomFilter, mtu: int = DEFAULT_MTU
) -> List[DigestChunk]:
    """Chunk a whole-filter snapshot into ``DigestChunk`` messages,
    each stamped with the snapshot's CRC-32 (see :class:`DigestChunk`)."""
    overhead = ICP_HEADER_SIZE + DIGEST_HEADER_SIZE
    if mtu <= overhead:
        raise ProtocolError(
            f"mtu of {mtu} bytes cannot carry any digest payload"
        )
    per_chunk = mtu - overhead
    data = source.filter.to_bytes()
    snapshot = zlib.crc32(data)
    num, bits = source.hash_family.spec()
    chunks = []
    for offset in range(0, len(data), per_chunk):
        chunks.append(
            DigestChunk(
                function_num=num,
                function_bits=bits,
                bit_array_size=source.num_bits,
                byte_offset=offset,
                total_bytes=len(data),
                payload=data[offset : offset + per_chunk],
                request_number=snapshot,
            )
        )
    if not chunks:  # zero-bit filters cannot occur, but guard anyway
        raise ProtocolError("cannot build digest messages for empty filter")
    return chunks


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
        """Feed one chunk; return the completed filter or ``None``."""
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

        family = MD5HashFamily.from_spec(
            chunk.function_num, chunk.function_bits
        )
        completed = BloomFilter.from_bytes(
            chunk.bit_array_size, bytes(data), hash_family=family
        )
        self._spec = None
        self._pieces = {}
        return completed
