"""The summary-cache enhanced ICP wire protocol (Section VI-A).

- :mod:`repro.protocol.wire` -- ICP v2 message encoding/decoding
  (RFC 2186 layout) plus the paper's ``ICP_OP_DIRUPDATE`` opcode whose
  payload is the hash-function specification header followed by 32-bit
  bit-flip records, and an ``ICP_OP_DIGEST`` opcode for whole-filter
  transfers (the Squid cache-digest variant the paper mentions).
- :mod:`repro.protocol.update` -- assembling flip lists into MTU-sized
  update messages, and reassembling whole-filter digest transfers.
- :mod:`repro.protocol.core` -- a proxy's per-request decisions
  (candidates, outcome, keeps, summaries), shared by the DES and the live
  proxy.
"""

from repro.protocol.update import build_dir_update_messages
from repro.protocol.wire import decode_message

__all__ = ["build_dir_update_messages", "decode_message"]
