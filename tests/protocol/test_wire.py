"""Tests for the ICP v2 wire format and summary cache extensions."""

from __future__ import annotations

import struct

import pytest

from repro.errors import ProtocolError
from repro.protocol.wire import (
    ICP_HEADER_SIZE,
    ICP_VERSION,
    MAX_BIT_INDEX,
    DigestChunk,
    DirUpdate,
    IcpHit,
    IcpMiss,
    IcpMissNoFetch,
    IcpQuery,
    Opcode,
    decode_flip,
    decode_message,
    encode_flip,
)


class TestHeader:
    def test_header_is_20_bytes(self):
        data = IcpHit(url="u").encode()
        assert len(data) == ICP_HEADER_SIZE + len("u") + 1

    def test_version_and_opcode_fields(self):
        data = IcpQuery(url="u", request_number=9).encode()
        opcode, version, length, reqnum = struct.unpack_from("!BBHI", data)
        assert opcode == Opcode.QUERY
        assert version == ICP_VERSION
        assert length == len(data)
        assert reqnum == 9

    def test_opcode_values_match_rfc2186(self):
        assert Opcode.QUERY == 1
        assert Opcode.HIT == 2
        assert Opcode.MISS == 3
        assert Opcode.MISS_NOFETCH == 21
        assert Opcode.HIT_OBJ == 23


class TestRoundTrips:
    @pytest.mark.parametrize(
        "message",
        [
            IcpQuery(
                url="http://example.com/a?b=c",
                request_number=1234,
                requester=0x0A0B0C0D,
            ),
            IcpHit(url="http://example.com/x", request_number=7),
            IcpMiss(url="http://example.com/x", request_number=8),
            IcpMissNoFetch(url="http://example.com/x", request_number=9),
            DirUpdate(
                function_num=4,
                function_bits=32,
                bit_array_size=1_000_000,
                flips=((0, True), (999_999, False), (17, True)),
                request_number=42,
            ),
            DigestChunk(
                function_num=4,
                function_bits=32,
                bit_array_size=80,
                byte_offset=4,
                total_bytes=10,
                payload=b"\xde\xad\xbe\xef",
            ),
        ],
    )
    def test_encode_decode_identity(self, message):
        decoded = decode_message(message.encode())
        assert decoded == message

    def test_unicode_url(self):
        query = IcpQuery(url="http://example.com/påge")
        assert decode_message(query.encode()) == query


class TestFlipRecords:
    def test_set_record_has_msb(self):
        record = encode_flip(5, True)
        assert record >> 31 == 1
        assert decode_flip(record) == (5, True)

    def test_clear_record(self):
        record = encode_flip(5, False)
        assert record >> 31 == 0
        assert decode_flip(record) == (5, False)

    def test_max_index(self):
        assert decode_flip(encode_flip(MAX_BIT_INDEX, True)) == (
            MAX_BIT_INDEX,
            True,
        )

    def test_index_overflow_raises(self):
        with pytest.raises(ProtocolError):
            encode_flip(MAX_BIT_INDEX + 1, True)


class TestValidation:
    def test_short_datagram(self):
        with pytest.raises(ProtocolError, match="shorter"):
            decode_message(b"\x01\x02")

    def test_wrong_version(self):
        data = bytearray(IcpHit(url="u").encode())
        data[1] = 3
        with pytest.raises(ProtocolError, match="version"):
            decode_message(bytes(data))

    def test_length_mismatch(self):
        data = IcpHit(url="u").encode() + b"extra"
        with pytest.raises(ProtocolError, match="length"):
            decode_message(data)

    def test_unknown_opcode(self):
        data = bytearray(IcpHit(url="u").encode())
        data[0] = 99
        with pytest.raises(ProtocolError, match="opcode"):
            decode_message(bytes(data))

    def test_url_must_be_nul_terminated(self):
        data = bytearray(IcpHit(url="u").encode())
        data[-1] = ord("x")  # overwrite the terminator
        with pytest.raises(ProtocolError, match="NUL"):
            decode_message(bytes(data))

    def test_url_with_nul_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            IcpHit(url="bad\x00url").encode()

    def test_dirupdate_flip_outside_array(self):
        with pytest.raises(ProtocolError, match="outside"):
            DirUpdate(
                function_num=4,
                function_bits=32,
                bit_array_size=100,
                flips=((100, True),),
            )

    def test_dirupdate_negative_flip_index(self):
        with pytest.raises(ProtocolError, match="outside"):
            DirUpdate(
                function_num=4,
                function_bits=32,
                bit_array_size=100,
                flips=((-1, True),),
            )

    def test_dirupdate_size_limit(self):
        # "The design limits the hash table size to be less than
        # 2 billion."
        with pytest.raises(ProtocolError):
            DirUpdate(
                function_num=4,
                function_bits=32,
                bit_array_size=MAX_BIT_INDEX + 2,
            )

    def test_dirupdate_header_fields_validated(self):
        with pytest.raises(ProtocolError):
            DirUpdate(function_num=0, function_bits=32, bit_array_size=8)
        with pytest.raises(ProtocolError):
            DirUpdate(function_num=4, function_bits=0, bit_array_size=8)

    @pytest.mark.parametrize(
        "header",
        [(0, 32, 8), (4, 0, 8), (4, 32, 0), (4, 32, MAX_BIT_INDEX + 2)],
        ids=["zero-functions", "zero-function-bits", "zero-bits", "too-large"],
    )
    def test_digest_header_checked_as_dirupdate_header(self, header):
        num, bits, size = header
        with pytest.raises(ProtocolError):
            DigestChunk(num, bits, size, 0, (size + 7) // 8, b"")

    def test_dirupdate_record_count_mismatch(self):
        data = bytearray(
            DirUpdate(
                function_num=4,
                function_bits=32,
                bit_array_size=100,
                flips=((1, True),),
            ).encode()
        )
        # Claim two records while carrying one.
        struct.pack_into("!I", data, ICP_HEADER_SIZE + 8, 2)
        with pytest.raises(ProtocolError, match="records"):
            decode_message(bytes(data))

    def test_digest_chunk_overrun(self):
        with pytest.raises(ProtocolError, match="overruns"):
            DigestChunk(
                function_num=4,
                function_bits=32,
                bit_array_size=80,
                byte_offset=8,
                total_bytes=10,
                payload=b"12345",
            )

    def test_digest_total_consistency(self):
        with pytest.raises(ProtocolError, match="inconsistent"):
            DigestChunk(
                function_num=4,
                function_bits=32,
                bit_array_size=80,
                byte_offset=0,
                total_bytes=11,
                payload=b"",
            )

    def test_oversized_message_rejected(self):
        with pytest.raises(ProtocolError, match="16-bit"):
            DirUpdate(
                function_num=4,
                function_bits=32,
                bit_array_size=1 << 30,
                flips=tuple((i, True) for i in range(20_000)),
            ).encode()


class TestWireSize:
    def test_dirupdate_wire_size(self):
        update = DirUpdate(
            function_num=4,
            function_bits=32,
            bit_array_size=1000,
            flips=((1, True), (2, False)),
        )
        assert update.wire_size() == len(update.encode())
        assert update.wire_size() == 20 + 12 + 8


class TestQueryTraceContext:
    """Trace context rides the QUERY header's Options / Option Data."""

    def test_round_trips_through_encode_decode(self):
        query = IcpQuery(
            url="http://example.com/doc",
            request_number=5,
            trace_id=0xDEADBEEF,
            parent_span=0x00C0FFEE,
        )
        decoded = decode_message(query.encode())
        assert decoded == query
        assert decoded.trace_id == 0xDEADBEEF
        assert decoded.parent_span == 0x00C0FFEE

    def test_travels_in_options_words(self):
        data = IcpQuery(
            url="u",
            request_number=1,
            trace_id=0xDEADBEEF,
            parent_span=0x00C0FFEE,
        ).encode()
        fields = struct.unpack_from("!BBHIIII", data)
        assert fields[4] == 0xDEADBEEF  # Options
        assert fields[5] == 0x00C0FFEE  # Option Data

    def test_zero_context_is_byte_identical_to_legacy(self):
        legacy = IcpQuery(url="http://e/x", request_number=3).encode()
        explicit = IcpQuery(
            url="http://e/x", request_number=3, trace_id=0, parent_span=0
        ).encode()
        assert legacy == explicit
        fields = struct.unpack_from("!BBHIIII", legacy)
        assert fields[4] == 0
        assert fields[5] == 0
        assert decode_message(legacy).trace_id == 0
