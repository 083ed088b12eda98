"""ICP v2 wire format plus the summary cache extensions.

The base layout follows RFC 2186: a 20-byte header ::

    opcode(1) version(1) length(2) request_number(4)
    options(4) option_data(4) sender_host(4)

followed by an opcode-specific payload.  The paper adds
``ICP_OP_DIRUPDATE`` (Section VI-A), whose payload is ::

    Function_Num(2) Function_Bits(2) BitArray_Size_InBits(4)
    Number_of_Updates(4)

followed by ``Number_of_Updates`` 32-bit records: "The most significant
bit in an integer specifies whether the bit should be set to 0 or 1, and
the rest of the bits specify the index of the bit that needs to be
changed."  Records are absolute, so lost updates do not cascade, and
"every update message carries the header, which specifies the hash
functions, so that receivers can verify the information."  The header
"limits the hash table size to be less than 2 billion."

This implementation additionally tags every ``ICP_OP_DIRUPDATE`` with a
**representation id** in the (otherwise unused) ICP Options field, so
the same opcode can carry deltas for any summary representation the
paper compares: id 0 (:data:`REPR_BLOOM`) is the bit-flip payload above
-- byte-identical to the untagged legacy format -- while ids 1
(:data:`REPR_EXACT`) and 2 (:data:`REPR_SERVER_NAME`) carry
:class:`SetDirUpdate` payloads of added/removed directory records
(16-byte MD5 digests, or length-prefixed server names).

``ICP_OP_DIGEST`` implements the whole-bit-array alternative ("if the
delay threshold is large, then it is more economical to send the entire
bit array; this approach is adopted in the Cache Digest prototype in
Squid"), chunked to fit a UDP MTU.

On ``ICP_OP_QUERY`` the Options / Option Data pair instead carries
**distributed-trace context** (trace id / parent span id, 0 = none), so
a query handled on a remote peer can join the originating client
request's trace; see :mod:`repro.obs.spans` and the header table in
``docs/wire-protocol.md``.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Tuple, Union

from repro.errors import ProtocolError

#: ICP protocol version implemented (the paper extends version 2).
ICP_VERSION = 2

#: Size of the fixed ICP header in bytes.
ICP_HEADER_SIZE = 20

#: Size of the DIRUPDATE extension header in bytes.
DIRUPDATE_HEADER_SIZE = 12

#: Size of one DIRUPDATE flip record in bytes (a 32-bit integer: MSB =
#: new value, low 31 bits = bit index).
FLIP_RECORD_BYTES = 4

#: Size of the set-delta (exact / server-name) extension header in bytes.
SET_UPDATE_HEADER_SIZE = 8

#: Size of the DIGEST chunk header in bytes.
DIGEST_HEADER_SIZE = 16

#: Maximum representable bit index (31 bits: the MSB carries the value).
MAX_BIT_INDEX = (1 << 31) - 1
#: A flip record's MSB: the bit's new value is 1.
_SET_BIT = 1 << 31

#: DIRUPDATE representation ids (carried in the ICP Options field).
#: 0 is the paper's Bloom bit-flip encoding -- the value legacy,
#: untagged senders put on the wire.
REPR_BLOOM = 0
#: Exact-directory delta: 16-byte MD5 URL digests.
REPR_EXACT = 1
#: Server-name delta: length-prefixed UTF-8 host names.
REPR_SERVER_NAME = 2

#: The representations whose deltas are added/removed record sets.
SET_REPRESENTATIONS = (REPR_EXACT, REPR_SERVER_NAME)

#: Fixed size of one exact-directory record (an MD5 digest).
EXACT_RECORD_BYTES = 16

_HEADER = struct.Struct("!BBHIIII")
_DIRUPDATE_HEADER = struct.Struct("!HHII")
_SET_UPDATE_HEADER = struct.Struct("!II")
_DIGEST_HEADER = struct.Struct("!HHIII")


class Opcode(enum.IntEnum):
    """ICP opcodes (RFC 2186 values plus the summary cache extensions)."""

    INVALID = 0
    QUERY = 1
    HIT = 2
    MISS = 3
    ERR = 4
    SECHO = 10
    DECHO = 11
    MISS_NOFETCH = 21
    DENIED = 22
    HIT_OBJ = 23
    #: Summary cache extension: directory (bit-flip) update.
    DIRUPDATE = 32
    #: Summary cache extension: whole-filter chunk (cache-digest style).
    DIGEST = 33


def _encode(
    opcode: Opcode,
    request_number: int,
    sender: int,
    payload: bytes,
    options: int = 0,
    option_data: int = 0,
) -> bytes:
    length = ICP_HEADER_SIZE + len(payload)
    if length > 0xFFFF:
        raise ProtocolError(
            f"message of {length} bytes exceeds the 16-bit ICP length field"
        )
    header = _HEADER.pack(
        opcode,
        ICP_VERSION,
        length,
        request_number & 0xFFFFFFFF,
        options & 0xFFFFFFFF,
        option_data & 0xFFFFFFFF,
        sender,
    )
    return header + payload


def _url_payload(url: str) -> bytes:
    data = url.encode("utf-8")
    if b"\x00" in data:
        raise ProtocolError("URL may not contain NUL bytes")
    return data + b"\x00"


def _parse_url(payload: bytes, what: str) -> str:
    end = payload.find(b"\x00")
    if end == -1:
        raise ProtocolError(f"{what}: URL payload is not NUL-terminated")
    return payload[:end].decode("utf-8")


@dataclass(frozen=True)
class IcpQuery:
    """An ``ICP_OP_QUERY``: "is this URL a fresh hit in your cache?".

    A query may carry **trace context** in the otherwise-unused header
    fields: ``trace_id`` travels in Options and ``parent_span`` in
    Option Data, so the peer handling the query can join the
    originating client request's distributed trace (see
    ``repro.obs.spans``).  Both default to 0 -- "no context" -- which
    keeps the encoding byte-identical to the pre-tracing format for
    untraced senders.
    """

    url: str
    request_number: int = 0
    requester: int = 0
    sender: int = 0
    trace_id: int = 0
    parent_span: int = 0

    def encode(self) -> bytes:
        """Serialize to a wire datagram."""
        payload = struct.pack("!I", self.requester) + _url_payload(self.url)
        return _encode(
            Opcode.QUERY,
            self.request_number,
            self.sender,
            payload,
            options=self.trace_id,
            option_data=self.parent_span,
        )


@dataclass(frozen=True)
class IcpHit:
    """An ``ICP_OP_HIT`` reply."""

    url: str
    request_number: int = 0
    sender: int = 0

    def encode(self) -> bytes:
        """Serialize to a wire datagram."""
        return _encode(
            Opcode.HIT, self.request_number, self.sender, _url_payload(self.url)
        )


@dataclass(frozen=True)
class IcpMiss:
    """An ``ICP_OP_MISS`` reply."""

    url: str
    request_number: int = 0
    sender: int = 0

    def encode(self) -> bytes:
        """Serialize to a wire datagram."""
        return _encode(
            Opcode.MISS, self.request_number, self.sender, _url_payload(self.url)
        )


@dataclass(frozen=True)
class IcpMissNoFetch:
    """An ``ICP_OP_MISS_NOFETCH`` reply (peer overloaded / do not fetch)."""

    url: str
    request_number: int = 0
    sender: int = 0

    def encode(self) -> bytes:
        """Serialize to a wire datagram."""
        return _encode(
            Opcode.MISS_NOFETCH,
            self.request_number,
            self.sender,
            _url_payload(self.url),
        )


def encode_flip(index: int, value: bool) -> int:
    """Pack one bit-flip record: MSB = new value, low 31 bits = index."""
    if not 0 <= index <= MAX_BIT_INDEX:
        raise ProtocolError(
            f"bit index {index} exceeds the 31-bit record limit"
        )
    return (_SET_BIT | index) if value else index


def decode_flip(record: int) -> Tuple[int, bool]:
    """Unpack one bit-flip record into ``(index, value)``."""
    return record & MAX_BIT_INDEX, bool(record >> 31)


def _check_geometry(
    function_num: int, function_bits: int, bit_array_size: int
) -> None:
    """The header rule a DIRUPDATE and a DIGEST share: each field is
    nonzero and fits its wire field (``Function_Num`` and
    ``Function_Bits`` 16 bits, ``BitArray_Size_InBits`` at most 2**31,
    the range a 31-bit flip index addresses)."""
    if not 1 <= function_num <= 0xFFFF:
        raise ProtocolError(f"function_num {function_num} out of 16-bit range")
    if not 1 <= function_bits <= 0xFFFF:
        raise ProtocolError(
            f"function_bits {function_bits} out of 16-bit range"
        )
    if not 1 <= bit_array_size <= MAX_BIT_INDEX + 1:
        raise ProtocolError(
            f"bit_array_size {bit_array_size} outside [1, 2**31] bits"
        )


@dataclass(frozen=True)
class DirUpdate:
    """An ``ICP_OP_DIRUPDATE``: a batch of absolute bit set/clear records.

    The extension header (``function_num``, ``function_bits``,
    ``bit_array_size``) pins down the filter geometry so a receiver can
    verify the update matches the structure it holds.
    """

    function_num: int
    function_bits: int
    bit_array_size: int
    flips: Tuple[Tuple[int, bool], ...] = field(default_factory=tuple)
    request_number: int = 0
    sender: int = 0

    def __post_init__(self) -> None:
        _check_geometry(
            self.function_num, self.function_bits, self.bit_array_size
        )
        for index, _value in self.flips:
            if not 0 <= index < self.bit_array_size:
                raise ProtocolError(
                    f"flip index {index} outside bit array of "
                    f"{self.bit_array_size} bits"
                )

    def encode(self) -> bytes:
        """Serialize to a wire datagram."""
        count = len(self.flips)
        header = _DIRUPDATE_HEADER.pack(
            self.function_num, self.function_bits, self.bit_array_size, count
        )
        # __post_init__ holds every index in [0, bit_array_size), so
        # each record is encode_flip's, packed in one call.
        records = struct.pack(
            f"!{count}I",
            *[i | _SET_BIT if value else i for i, value in self.flips],
        )
        return _encode(
            Opcode.DIRUPDATE, self.request_number, self.sender, header + records
        )

    def wire_size(self) -> int:
        """Total encoded size in bytes."""
        return (
            ICP_HEADER_SIZE
            + DIRUPDATE_HEADER_SIZE
            + FLIP_RECORD_BYTES * len(self.flips)
        )

    @property
    def change_count(self) -> int:
        """Records carried (uniform across DIRUPDATE payload kinds)."""
        return len(self.flips)


def _set_record_size(representation: int, record: bytes) -> int:
    """Encoded size of one set-delta record."""
    if representation == REPR_EXACT:
        return EXACT_RECORD_BYTES
    return 2 + len(record)


@dataclass(frozen=True)
class SetDirUpdate:
    """An ``ICP_OP_DIRUPDATE`` carrying a digest-set delta.

    Used for the exact-directory and server-name representations, whose
    deltas are *records added to / removed from a set* rather than bit
    flips.  The representation id travels in the ICP header's Options
    field; the payload is an 8-byte header (``Added_Count(4)``,
    ``Removed_Count(4)``) followed by the added records then the removed
    records -- fixed 16-byte MD5 digests for :data:`REPR_EXACT`,
    2-byte-length-prefixed UTF-8 names for :data:`REPR_SERVER_NAME`.

    Like the bit-flip form, records are absolute statements of final
    membership, so loss degrades a copy gracefully and replay is
    idempotent.
    """

    representation: int
    added: Tuple[bytes, ...] = field(default_factory=tuple)
    removed: Tuple[bytes, ...] = field(default_factory=tuple)
    request_number: int = 0
    sender: int = 0

    def __post_init__(self) -> None:
        if self.representation not in SET_REPRESENTATIONS:
            raise ProtocolError(
                f"representation id {self.representation} is not a "
                f"set representation (expected one of {SET_REPRESENTATIONS})"
            )
        for record in self.added + self.removed:
            if self.representation == REPR_EXACT:
                if len(record) != EXACT_RECORD_BYTES:
                    raise ProtocolError(
                        f"exact-directory record of {len(record)} bytes; "
                        f"MD5 digests are {EXACT_RECORD_BYTES} bytes"
                    )
            elif not 1 <= len(record) <= 0xFFFF:
                raise ProtocolError(
                    f"server-name record of {len(record)} bytes outside "
                    "[1, 65535]"
                )
            else:
                try:
                    record.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"server-name record is not UTF-8: {exc}"
                    ) from None

    def encode(self) -> bytes:
        """Serialize to a wire datagram."""
        payload = bytearray(
            _SET_UPDATE_HEADER.pack(len(self.added), len(self.removed))
        )
        for record in self.added + self.removed:
            if self.representation == REPR_EXACT:
                payload += record
            else:
                payload += struct.pack("!H", len(record)) + record
        return _encode(
            Opcode.DIRUPDATE,
            self.request_number,
            self.sender,
            bytes(payload),
            options=self.representation,
        )

    def wire_size(self) -> int:
        """Total encoded size in bytes."""
        return (
            ICP_HEADER_SIZE
            + SET_UPDATE_HEADER_SIZE
            + sum(
                _set_record_size(self.representation, r)
                for r in self.added + self.removed
            )
        )

    @property
    def change_count(self) -> int:
        """Records carried (uniform across DIRUPDATE payload kinds)."""
        return len(self.added) + len(self.removed)


def _decode_set_records(
    representation: int, data: bytes, count: int, what: str
) -> Tuple[Tuple[bytes, ...], int]:
    """Parse *count* set-delta records from *data*; return them + offset."""
    records = []
    offset = 0
    for _ in range(count):
        if representation == REPR_EXACT:
            end = offset + EXACT_RECORD_BYTES
            if end > len(data):
                raise ProtocolError(f"{what}: truncated digest record")
            records.append(data[offset:end])
            offset = end
        else:
            if offset + 2 > len(data):
                raise ProtocolError(f"{what}: truncated name length")
            (name_len,) = struct.unpack_from("!H", data, offset)
            if name_len == 0:
                raise ProtocolError(f"{what}: zero-length name record")
            end = offset + 2 + name_len
            if end > len(data):
                raise ProtocolError(f"{what}: truncated name record")
            records.append(data[offset + 2 : end])
            offset = end
    return tuple(records), offset


@dataclass(frozen=True)
class DigestChunk:
    """An ``ICP_OP_DIGEST``: one chunk of a whole-bit-array transfer.

    Every chunk of one transfer carries the CRC-32 of the whole array
    in ``request_number``, so a receiver never merges chunks of two
    snapshots of the same geometry.
    """

    function_num: int
    function_bits: int
    bit_array_size: int
    byte_offset: int
    total_bytes: int
    payload: bytes
    request_number: int = 0
    sender: int = 0

    def __post_init__(self) -> None:
        _check_geometry(
            self.function_num, self.function_bits, self.bit_array_size
        )
        expected_total = (self.bit_array_size + 7) // 8
        if self.total_bytes != expected_total:
            raise ProtocolError(
                f"total_bytes {self.total_bytes} inconsistent with "
                f"{self.bit_array_size} bits"
            )
        if self.byte_offset + len(self.payload) > self.total_bytes:
            raise ProtocolError(
                f"chunk [{self.byte_offset}, "
                f"{self.byte_offset + len(self.payload)}) overruns "
                f"{self.total_bytes}-byte digest"
            )

    def encode(self) -> bytes:
        """Serialize to a wire datagram."""
        header = _DIGEST_HEADER.pack(
            self.function_num,
            self.function_bits,
            self.bit_array_size,
            self.byte_offset,
            self.total_bytes,
        )
        return _encode(
            Opcode.DIGEST,
            self.request_number,
            self.sender,
            header + self.payload,
        )

    def wire_size(self) -> int:
        """Total encoded size in bytes."""
        return ICP_HEADER_SIZE + DIGEST_HEADER_SIZE + len(self.payload)


#: Every message :func:`decode_message` can produce.
IcpMessage = Union[
    IcpQuery,
    IcpHit,
    IcpMiss,
    IcpMissNoFetch,
    DirUpdate,
    SetDirUpdate,
    DigestChunk,
]


def decode_message(data: bytes) -> IcpMessage:
    """Decode one ICP datagram into its message dataclass.

    Raises :class:`~repro.errors.ProtocolError` for short datagrams,
    version mismatches, inconsistent length fields, and unknown opcodes.
    """
    if len(data) < ICP_HEADER_SIZE:
        raise ProtocolError(
            f"datagram of {len(data)} bytes is shorter than the "
            f"{ICP_HEADER_SIZE}-byte ICP header"
        )
    opcode, version, length, request_number, _opts, _optdata, sender = (
        _HEADER.unpack_from(data)
    )
    if version != ICP_VERSION:
        raise ProtocolError(f"unsupported ICP version {version}")
    if length != len(data):
        raise ProtocolError(
            f"length field says {length} bytes but datagram has {len(data)}"
        )
    payload = data[ICP_HEADER_SIZE:]

    if opcode == Opcode.QUERY:
        if len(payload) < 5:
            raise ProtocolError("QUERY payload too short")
        (requester,) = struct.unpack_from("!I", payload)
        url = _parse_url(payload[4:], "QUERY")
        return IcpQuery(
            url=url,
            request_number=request_number,
            requester=requester,
            sender=sender,
            trace_id=_opts,
            parent_span=_optdata,
        )
    if opcode == Opcode.HIT:
        return IcpHit(
            url=_parse_url(payload, "HIT"),
            request_number=request_number,
            sender=sender,
        )
    if opcode == Opcode.MISS:
        return IcpMiss(
            url=_parse_url(payload, "MISS"),
            request_number=request_number,
            sender=sender,
        )
    if opcode == Opcode.MISS_NOFETCH:
        return IcpMissNoFetch(
            url=_parse_url(payload, "MISS_NOFETCH"),
            request_number=request_number,
            sender=sender,
        )
    if opcode == Opcode.DIRUPDATE:
        if _opts in SET_REPRESENTATIONS:
            if len(payload) < SET_UPDATE_HEADER_SIZE:
                raise ProtocolError("DIRUPDATE set payload too short")
            added_count, removed_count = _SET_UPDATE_HEADER.unpack_from(
                payload
            )
            records = payload[SET_UPDATE_HEADER_SIZE:]
            added, consumed = _decode_set_records(
                _opts, records, added_count, "DIRUPDATE added"
            )
            removed, tail = _decode_set_records(
                _opts, records[consumed:], removed_count, "DIRUPDATE removed"
            )
            if consumed + tail != len(records):
                raise ProtocolError(
                    f"DIRUPDATE announces {added_count}+{removed_count} "
                    f"records but carries {len(records)} payload bytes"
                )
            return SetDirUpdate(
                representation=_opts,
                added=added,
                removed=removed,
                request_number=request_number,
                sender=sender,
            )
        if _opts != REPR_BLOOM:
            raise ProtocolError(
                f"unknown DIRUPDATE representation id {_opts}"
            )
        if len(payload) < DIRUPDATE_HEADER_SIZE:
            raise ProtocolError("DIRUPDATE payload too short")
        fnum, fbits, asize, count = _DIRUPDATE_HEADER.unpack_from(payload)
        records = payload[DIRUPDATE_HEADER_SIZE:]
        if len(records) != FLIP_RECORD_BYTES * count:
            raise ProtocolError(
                f"DIRUPDATE announces {count} records but carries "
                f"{len(records)} payload bytes"
            )
        flips = tuple(
            (record & MAX_BIT_INDEX, record > MAX_BIT_INDEX)
            for record in struct.unpack(f"!{count}I", records)
        )
        return DirUpdate(
            function_num=fnum,
            function_bits=fbits,
            bit_array_size=asize,
            flips=flips,
            request_number=request_number,
            sender=sender,
        )
    if opcode == Opcode.DIGEST:
        if len(payload) < DIGEST_HEADER_SIZE:
            raise ProtocolError("DIGEST payload too short")
        fnum, fbits, asize, offset, total = struct.unpack_from(
            "!HHIII", payload
        )
        return DigestChunk(
            function_num=fnum,
            function_bits=fbits,
            bit_array_size=asize,
            byte_offset=offset,
            total_bytes=total,
            payload=payload[DIGEST_HEADER_SIZE:],
            request_number=request_number,
            sender=sender,
        )
    raise ProtocolError(f"unknown or unsupported opcode {opcode}")
