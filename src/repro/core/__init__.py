"""Core data structures of the summary cache protocol.

This subpackage contains the paper's primary algorithmic contribution:

- :mod:`repro.core.hashing` -- the MD5-slice hash family of Section VI-A,
  which derives ``Function_Num`` hash functions of ``Function_Bits`` bits
  each from the MD5 signature of a URL.
- :mod:`repro.core.bitarray` -- packed bit and small-counter arrays.
- :mod:`repro.core.bloom` -- the plain Bloom filter used as the shipped
  summary representation.
- :mod:`repro.core.counting_bloom` -- the counting Bloom filter (4-bit
  saturating counters) that lets a proxy maintain its own summary under
  both insertions and deletions (Section V-C).
- :mod:`repro.core.bfmath` -- the analytic false-positive and
  counter-overflow formulas behind Fig. 4.
- :mod:`repro.core.position_cache` -- the shared LRU memo of MD5 digests
  and derived bit positions that lets N proxies probing the same URL
  hash once instead of N times (see ``docs/performance.md``).

The three summary representations compared in Section V
(exact-directory, server-name, Bloom filter) are built on these
structures in :mod:`repro.summaries`.
"""
