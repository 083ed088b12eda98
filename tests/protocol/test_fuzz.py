"""Property/fuzz tests for the wire protocol.

The decoder faces an open UDP port: arbitrary bytes must produce either
a valid message or :class:`~repro.errors.ProtocolError` -- never any
other exception -- and well-formed messages must round-trip exactly.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol.update import FLIPS_PER_MESSAGE, MTU
from repro.protocol.wire import (
    DIRUPDATE_HEADER_SIZE,
    ICP_HEADER_SIZE,
    MAX_BIT_INDEX,
    DirUpdate,
    IcpQuery,
    decode_flip,
    decode_message,
    encode_flip,
)

urls = st.text(
    alphabet=st.characters(
        blacklist_characters="\x00", blacklist_categories=("Cs",)
    ),
    min_size=1,
    max_size=200,
)


@given(st.binary(max_size=300))
@settings(max_examples=300, deadline=None)
def test_decoder_never_raises_unexpected(data):
    try:
        decode_message(data)
    except ProtocolError:
        pass  # the only acceptable failure mode


@given(
    urls,
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
)
@settings(max_examples=100, deadline=None)
def test_query_roundtrip(url, reqnum, requester):
    query = IcpQuery(
        url=url, request_number=reqnum, requester=requester
    )
    assert decode_message(query.encode()) == query


@given(
    st.lists(
        st.tuples(st.integers(0, 9999), st.booleans()),
        max_size=64,
    ),
    st.integers(1, 16),
    st.integers(1, 64),
)
@settings(max_examples=100, deadline=None)
def test_dirupdate_roundtrip(flips, function_num, function_bits):
    update = DirUpdate(
        function_num=function_num,
        function_bits=function_bits,
        bit_array_size=10_000,
        flips=tuple(flips),
    )
    assert decode_message(update.encode()) == update


bit_indices = st.one_of(
    st.integers(0, MAX_BIT_INDEX),
    st.integers(MAX_BIT_INDEX - 64, MAX_BIT_INDEX),
    st.integers(0, 64),
)


@given(
    st.lists(
        st.tuples(bit_indices, st.booleans()),
        min_size=0,
        max_size=FLIPS_PER_MESSAGE,
    )
)
@settings(max_examples=100, deadline=None)
def test_dirupdate_roundtrip_up_to_mtu(flips):
    """The one-call record codec round-trips every count up to a full
    MTU, including indices at the 31-bit edge, and writes the bytes the
    record-at-a-time encoding did."""
    update = DirUpdate(
        function_num=4,
        function_bits=32,
        bit_array_size=MAX_BIT_INDEX + 1,
        flips=tuple(flips),
        request_number=7,
    )
    wire = update.encode()
    records = b"".join(
        struct.pack("!I", encode_flip(index, value)) for index, value in flips
    )
    assert wire[ICP_HEADER_SIZE + DIRUPDATE_HEADER_SIZE :] == records
    assert len(wire) == update.wire_size() <= MTU
    assert decode_message(wire) == update


@given(st.integers(0, (1 << 31) - 1), st.booleans())
@settings(max_examples=200, deadline=None)
def test_flip_record_roundtrip(index, value):
    assert decode_flip(encode_flip(index, value)) == (index, value)


def test_truncated_valid_messages_rejected_cleanly():
    """Every truncation of a valid message fails with ProtocolError."""
    query = IcpQuery(url="http://fuzz.example/x", request_number=1)
    wire = query.encode()
    for cut in range(len(wire)):
        try:
            decode_message(wire[:cut])
        except ProtocolError:
            continue
        raise AssertionError(f"truncation at {cut} bytes was accepted")
