"""The summary-cache enhanced ICP wire protocol (Section VI-A).

- :mod:`repro.protocol.wire` -- ICP v2 message encoding/decoding
  (RFC 2186 layout) plus the paper's ``ICP_OP_DIRUPDATE`` opcode whose
  payload is the hash-function specification header followed by 32-bit
  bit-flip records, and an ``ICP_OP_DIGEST`` opcode for whole-filter
  transfers (the Squid cache-digest variant the paper mentions).
- :mod:`repro.protocol.update` -- assembling flip lists into MTU-sized
  update messages, and reassembling whole-filter digest transfers.
"""

from repro.protocol.update import (
    DigestAssembler,
    build_digest_messages,
    build_dir_update_messages,
)
from repro.protocol.wire import (
    ICP_HEADER_SIZE,
    ICP_VERSION,
    DigestChunk,
    DirUpdate,
    IcpHit,
    IcpMiss,
    IcpMissNoFetch,
    IcpQuery,
    Opcode,
    decode_message,
)

__all__ = [
    "DigestAssembler",
    "DigestChunk",
    "DirUpdate",
    "ICP_HEADER_SIZE",
    "ICP_VERSION",
    "IcpHit",
    "IcpMiss",
    "IcpMissNoFetch",
    "IcpQuery",
    "Opcode",
    "build_digest_messages",
    "build_dir_update_messages",
    "decode_message",
]
