"""Core data structures of the summary cache protocol.

This subpackage contains the structures the paper's summaries are built
from:

- :mod:`repro.core.hashing` -- the MD5-slice hash family of Section VI-A,
  which derives ``Function_Num`` hash functions of ``Function_Bits`` bits
  each from the MD5 signature of a URL.
- :mod:`repro.core.bitarray` -- packed bit arrays, and the small
  saturating counters (4 bits each) that let a proxy keep its own
  summary under both insertions and deletions (Section V-C), with the
  journal of bit flips a delta update ships.
- :mod:`repro.core.bloom` -- the plain Bloom filter: the shipped summary
  representation as a peer receives it.
- :mod:`repro.core.bfmath` -- the analytic false-positive and
  counter-overflow formulas behind Fig. 4.
- :mod:`repro.core.position_cache` -- the shared LRU memo of MD5 digests
  and derived bit positions that lets N proxies probing the same URL
  hash once instead of N times (see ``docs/performance.md``).

The three summary representations compared in Section V
(exact-directory, server-name, Bloom filter) are built on these
structures in :mod:`repro.summaries`; the counting Bloom filter is
:class:`~repro.summaries.bloom.BloomSummary`.
"""
