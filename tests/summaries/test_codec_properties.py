"""Property tests for the representation-tagged codec.

The representation id is attacker-controlled input (it arrives in the
ICP Options field of any DIRUPDATE datagram), so the codec must reject
unknown ids and truncated payloads with the library's own error types
-- never mis-decode, never raise anything else.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.wire import (
    REPR_BLOOM,
    REPR_EXACT,
    REPR_SERVER_NAME,
    SET_REPRESENTATIONS,
    DirUpdate,
    SetDirUpdate,
    decode_message,
)
from repro.summaries.codec import (
    KIND_TO_REPRESENTATION,
    representation_kind,
)

KNOWN_IDS = frozenset(KIND_TO_REPRESENTATION.values())

#: Wire header offset of the 32-bit Options field carrying the id.
_OPTS_OFFSET = 8

unknown_ids = st.integers(0, 0xFFFFFFFF).filter(
    lambda rep_id: rep_id not in KNOWN_IDS
)

digests = st.binary(min_size=16, max_size=16)
server_names = st.text(min_size=1, max_size=40).map(
    lambda s: s.encode("utf-8")
).filter(lambda b: 1 <= len(b) <= 0xFFFF)


def _set_updates() -> st.SearchStrategy[SetDirUpdate]:
    def build(representation: int) -> st.SearchStrategy[SetDirUpdate]:
        records = digests if representation == REPR_EXACT else server_names
        return st.builds(
            SetDirUpdate,
            representation=st.just(representation),
            added=st.lists(records, max_size=8).map(tuple),
            removed=st.lists(records, max_size=8).map(tuple),
            request_number=st.integers(0, 0xFFFFFFFF),
        )

    return st.sampled_from(SET_REPRESENTATIONS).flatmap(build)


def _bloom_updates() -> st.SearchStrategy[DirUpdate]:
    return st.builds(
        DirUpdate,
        function_num=st.integers(1, 16),
        function_bits=st.integers(1, 32),
        bit_array_size=st.just(10_000),
        flips=st.lists(
            st.tuples(st.integers(0, 9_999), st.booleans()), max_size=16
        ).map(tuple),
    )


class TestUnknownRepresentationIds:
    @given(unknown_ids)
    @settings(max_examples=200, deadline=None)
    def test_representation_kind_rejects_unknown_id(self, rep_id):
        with pytest.raises(ConfigurationError):
            representation_kind(rep_id)

    def test_mapping_round_trips_every_known_id(self):
        for kind, rep_id in KIND_TO_REPRESENTATION.items():
            assert representation_kind(rep_id) == kind
        assert KNOWN_IDS == {REPR_BLOOM, REPR_EXACT, REPR_SERVER_NAME}

    @given(_set_updates(), unknown_ids)
    @settings(max_examples=100, deadline=None)
    def test_tampered_options_field_rejected(self, update, bogus_id):
        """Flipping the wire Options field to an unknown id must fail."""
        wire = bytearray(update.encode())
        struct.pack_into("!I", wire, _OPTS_OFFSET, bogus_id)
        with pytest.raises(ProtocolError):
            decode_message(bytes(wire))

    @given(_set_updates(), st.sampled_from(sorted(SET_REPRESENTATIONS)))
    @settings(max_examples=100, deadline=None)
    def test_retagged_known_id_never_escapes_error_contract(
        self, update, other_id
    ):
        """Retagging between known set ids decodes or fails cleanly.

        An exact-directory payload relabelled as server-name (or vice
        versa) must either parse as the relabelled representation or
        raise ProtocolError -- never any other exception.
        """
        wire = bytearray(update.encode())
        struct.pack_into("!I", wire, _OPTS_OFFSET, other_id)
        try:
            decoded = decode_message(bytes(wire))
        except ProtocolError:
            return
        assert decoded.representation == other_id


class TestTruncatedPayloads:
    @given(_set_updates(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_set_update_prefixes_rejected(self, update, data):
        wire = update.encode()
        cut = data.draw(st.integers(0, len(wire) - 1), label="cut")
        with pytest.raises(ProtocolError):
            decode_message(wire[:cut])

    @given(_bloom_updates(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bloom_update_prefixes_rejected(self, update, data):
        wire = update.encode()
        cut = data.draw(st.integers(0, len(wire) - 1), label="cut")
        with pytest.raises(ProtocolError):
            decode_message(wire[:cut])

    @given(_set_updates())
    @settings(max_examples=100, deadline=None)
    def test_untampered_update_round_trips(self, update):
        assert decode_message(update.encode()) == update
