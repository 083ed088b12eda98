"""Tests for representation-tagged set-summary DIRUPDATEs.

The Options field of an ``ICP_OP_DIRUPDATE`` names the summary
representation; ids 1 (exact-directory) and 2 (server-name) carry
added/removed record batches instead of bit flips.  The decoder must
route on that id, reject unknown ids, and keep the legacy Bloom
encoding (Options = 0) byte-identical.
"""

from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol.update import MTU, build_set_update_messages
from repro.protocol.wire import (
    ICP_HEADER_SIZE,
    REPR_BLOOM,
    REPR_EXACT,
    REPR_SERVER_NAME,
    DirUpdate,
    Opcode,
    SetDirUpdate,
    decode_message,
)


def digest(url: str) -> bytes:
    return hashlib.md5(url.encode("utf-8")).digest()


def names(*values: str):
    return tuple(v.encode("utf-8") for v in values)


class TestRoundTrips:
    def test_exact_roundtrip(self):
        update = SetDirUpdate(
            representation=REPR_EXACT,
            added=(digest("a"), digest("b")),
            removed=(digest("c"),),
            request_number=41,
            sender=0x7F000001,
        )
        decoded = decode_message(update.encode())
        assert decoded == update

    def test_server_name_roundtrip(self):
        update = SetDirUpdate(
            representation=REPR_SERVER_NAME,
            added=names("www.cs.wisc.edu", "proxy.example.net"),
            removed=names("old.example.org"),
            request_number=9,
        )
        decoded = decode_message(update.encode())
        assert decoded == update

    def test_empty_batches_roundtrip(self):
        update = SetDirUpdate(representation=REPR_EXACT)
        assert decode_message(update.encode()) == update

    def test_options_field_carries_representation(self):
        for rep in (REPR_EXACT, REPR_SERVER_NAME):
            data = SetDirUpdate(representation=rep).encode()
            opcode, _v, _len, _req, options = struct.unpack_from(
                "!BBHII", data
            )
            assert opcode == Opcode.DIRUPDATE
            assert options == rep

    def test_legacy_bloom_options_stay_zero(self):
        data = DirUpdate(
            function_num=4,
            function_bits=14,
            bit_array_size=1 << 14,
            flips=((3, True),),
        ).encode()
        options = struct.unpack_from("!BBHII", data)[4]
        assert options == REPR_BLOOM == 0
        assert isinstance(decode_message(data), DirUpdate)

    def test_change_count(self):
        update = SetDirUpdate(
            representation=REPR_EXACT,
            added=(digest("a"),),
            removed=(digest("b"), digest("c")),
        )
        assert update.change_count == 3
        assert update.wire_size() == len(update.encode())


class TestValidation:
    def test_unknown_representation_id_rejected(self):
        data = bytearray(SetDirUpdate(representation=REPR_EXACT).encode())
        struct.pack_into("!I", data, 4 + 4, 7)  # Options field
        with pytest.raises(ProtocolError, match="representation"):
            decode_message(bytes(data))

    def test_exact_digest_must_be_16_bytes(self):
        with pytest.raises(ProtocolError):
            SetDirUpdate(
                representation=REPR_EXACT, added=(b"short",)
            )

    def test_server_name_record_length_limit(self):
        with pytest.raises(ProtocolError):
            SetDirUpdate(
                representation=REPR_SERVER_NAME,
                added=(b"x" * 0x10000,),
            )

    def test_server_name_must_be_utf8(self):
        with pytest.raises(ProtocolError, match="UTF-8"):
            SetDirUpdate(representation=REPR_SERVER_NAME, removed=(b"\xff",))

    def test_invalid_representation_at_construction(self):
        with pytest.raises(ProtocolError):
            SetDirUpdate(representation=REPR_BLOOM)

    def test_truncated_records_rejected(self):
        data = SetDirUpdate(
            representation=REPR_EXACT, added=(digest("a"),)
        ).encode()
        truncated = data[:-4]
        # Fix up the ICP length header so only the payload is short.
        patched = bytearray(truncated)
        struct.pack_into("!H", patched, 2, len(truncated))
        with pytest.raises(ProtocolError):
            decode_message(bytes(patched))

    def test_count_mismatch_rejected(self):
        update = SetDirUpdate(
            representation=REPR_EXACT,
            added=(digest("a"), digest("b")),
        )
        data = bytearray(update.encode())
        # Claim three added records while carrying two.
        struct.pack_into("!I", data, ICP_HEADER_SIZE, 3)
        with pytest.raises(ProtocolError):
            decode_message(bytes(data))


class TestBatching:
    def test_messages_respect_mtu(self):
        added = tuple(digest(f"a{i}") for i in range(400))
        removed = tuple(digest(f"r{i}") for i in range(100))
        messages = build_set_update_messages(REPR_EXACT, added, removed)
        assert len(messages) > 1
        for message in messages:
            assert message.wire_size() <= MTU
        got_added = [r for m in messages for r in m.added]
        got_removed = [r for m in messages for r in m.removed]
        assert got_added == list(added)
        assert got_removed == list(removed)

    def test_variable_length_names_batch(self):
        added = names(*(f"server-{i:03d}.example.net" for i in range(80)))
        messages = build_set_update_messages(REPR_SERVER_NAME, added, ())
        assert len(messages) > 1
        assert [r for m in messages for r in m.added] == list(added)
        for message in messages:
            assert message.wire_size() <= MTU

    def test_oversized_name_travels_alone(self):
        # A server name comes from a client's URL, so it can outgrow
        # the datagram: it goes in one of its own, alone or not.
        huge = "h" * 2000
        (alone,) = build_set_update_messages(
            REPR_SERVER_NAME, names(huge), ()
        )
        assert alone.added == names(huge)
        assert alone.wire_size() > MTU
        assert decode_message(alone.encode()) == alone
        small, big = build_set_update_messages(
            REPR_SERVER_NAME, names("a.com", huge), ()
        )
        assert (small.added, big.added) == (names("a.com"), names(huge))
        assert (small.wire_size(), big.wire_size()) == (35, 2030)

    def test_empty_delta_builds_no_messages(self):
        assert build_set_update_messages(REPR_EXACT, (), ()) == []


@given(
    st.lists(st.integers(1, 3 * MTU).map(lambda n: b"n" * n), max_size=12),
    st.lists(st.integers(1, 3 * MTU).map(lambda n: b"o" * n), max_size=12),
)
@settings(max_examples=100, deadline=None)
def test_batches_fit_the_mtu_or_carry_one_record(added, removed):
    messages = build_set_update_messages(REPR_SERVER_NAME, added, removed)
    for message in messages:
        records = len(message.added) + len(message.removed)
        assert message.wire_size() <= MTU or records == 1
    assert [r for m in messages for r in m.added] == added
    assert [r for m in messages for r in m.removed] == removed


@given(
    st.lists(st.binary(min_size=16, max_size=16), max_size=40),
    st.lists(st.binary(min_size=16, max_size=16), max_size=40),
    st.integers(0, 0xFFFFFFFF),
)
@settings(max_examples=100, deadline=None)
def test_exact_fuzz_roundtrip(added, removed, reqnum):
    update = SetDirUpdate(
        representation=REPR_EXACT,
        added=tuple(added),
        removed=tuple(removed),
        request_number=reqnum,
    )
    assert decode_message(update.encode()) == update


@given(
    st.lists(
        st.text(min_size=1, max_size=60).map(
            lambda s: s.encode("utf-8")[:255]
        ),
        max_size=30,
    ).map(lambda records: tuple(r for r in records if r)),
    st.integers(0, 0xFFFFFFFF),
)
@settings(max_examples=100, deadline=None)
def test_server_name_fuzz_roundtrip(added, reqnum):
    update = SetDirUpdate(
        representation=REPR_SERVER_NAME,
        added=added,
        request_number=reqnum,
    )
    assert decode_message(update.encode()) == update
