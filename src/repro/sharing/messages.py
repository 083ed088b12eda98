"""The paper's interproxy message-size model (Section V-D).

Fig. 8 estimates message bytes with these assumptions, quoted:

    "The average size of query messages in both ICP and other approaches
    is assumed to be 20 bytes of header and 50 bytes of average URL.
    The size of summary updates in exact-directory and server-name is
    assumed to be 20 bytes of header and 16 bytes per change.  The size
    of summary updates in Bloom filter based summaries is estimated at
    32 bytes of header plus 4 bytes per bit-flip."

These constants are kept as module attributes (not buried in code) so the
benchmark harness can print the assumptions next to the results.
"""

from __future__ import annotations

from repro.protocol.wire import FLIP_RECORD_BYTES

#: Query/reply message size: 20-byte header + 50-byte average URL.
QUERY_MESSAGE_BYTES = 20 + 50

#: Header of an exact-directory or server-name update message.
DIGEST_UPDATE_HEADER_BYTES = 20

#: Bytes per change record (one MD5 digest) in a digest update.
DIGEST_CHANGE_BYTES = 16

#: Header of a Bloom filter update message (the ICP header plus the
#: Function_Num / Function_Bits / BitArray_Size_InBits /
#: Number_of_Updates extension header of Section VI-A).
BLOOM_UPDATE_HEADER_BYTES = 32

#: Bytes per bit-flip record: the DIRUPDATE record the live proxy sends.
BLOOM_FLIP_BYTES = FLIP_RECORD_BYTES


def digest_update_bytes(change_count: int) -> int:
    """Size of one exact-directory/server-name update message."""
    return DIGEST_UPDATE_HEADER_BYTES + DIGEST_CHANGE_BYTES * change_count


def bloom_update_bytes(flip_count: int) -> int:
    """Size of one Bloom filter delta update message."""
    return BLOOM_UPDATE_HEADER_BYTES + BLOOM_FLIP_BYTES * flip_count


def whole_filter_update_bytes(num_bits: int) -> int:
    """Size of a whole-bit-array update (the Squid cache-digest style).

    Used by the update-encoding ablation: for large thresholds shipping
    the entire array beats shipping flips ("the proxy can either specify
    which bits in the bit array are flipped, or send the whole array,
    whichever is smaller").
    """
    return BLOOM_UPDATE_HEADER_BYTES + (num_bits + 7) // 8
