"""Reproduction of *Summary Cache: A Scalable Wide-Area Web Cache Sharing
Protocol* (Fan, Cao, Almeida, Broder; SIGCOMM 1998 / IEEE-ACM ToN 2000).

The package is organized around the paper's structure:

- :mod:`repro.core` -- hashing, bit and counter arrays, the plain Bloom
  filter, and the analytic math (Sections V-B/C/D, Fig. 4).
- :mod:`repro.summaries` -- the summary representations, the counting
  Bloom filter among them (Section V-C), and their wire codec.
- :mod:`repro.cache` -- the proxy cache substrate (Section II).
- :mod:`repro.traces` -- synthetic trace generation and statistics
  standing in for the paper's five proxy traces (Table I).
- :mod:`repro.sharing` -- trace-driven simulators for every sharing
  scheme and summary form (Figs. 1, 2, 5-8; Table III).
- :mod:`repro.protocol` -- the ICP v2 wire format plus the
  ``ICP_OP_DIRUPDATE`` extension (Section VI-A).
- :mod:`repro.proxy` -- an asyncio proxy prototype speaking the protocol
  on localhost (Section VI-B).
- :mod:`repro.simulation` -- a discrete-event proxy-cluster simulator
  reproducing the overhead experiments (Tables II, IV, V).
- :mod:`repro.benchmarkkit` -- a Wisconsin-proxy-benchmark-equivalent
  workload generator (Section IV).
- :mod:`repro.analysis` -- the 100-proxy scalability extrapolation
  (Section V-F).
- :mod:`repro.obs` -- the observability layer every other module
  reports through: metrics registry, span ring, and the
  Prometheus/JSON exposition behind ``GET /metrics``.

Quickstart::

    from repro.summaries import BloomSummary

    summary = BloomSummary(10_000)  # 8 bits per expected document
    summary.add("http://example.com/index.html")
    assert summary.may_contain("http://example.com/index.html")
    summary.remove("http://example.com/index.html")
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
