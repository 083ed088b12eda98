"""Trace substrate: request records, synthetic generation, statistics.

The paper's evaluation is trace-driven over five proxy traces (DEC, UCB,
UPisa, Questnet, NLANR) that are proprietary and no longer distributed.
This subpackage provides:

- :mod:`repro.traces.model` -- the request record and trace container;
- :mod:`repro.traces.synthetic` -- a generator producing request streams
  with Zipf popularity, Pareto sizes, per-client temporal locality, and
  document modification, the properties the paper's results depend on;
- :mod:`repro.traces.workloads` -- five presets mirroring the structure
  of Table I's traces at laptop scale;
- :mod:`repro.traces.stats` -- Table I statistics (requests, clients,
  infinite cache size, maximum hit/byte-hit ratios);
- :mod:`repro.traces.binary` -- the one trace file, packed ``.sctr``:
  struct-packed records plus a URL string table, written streaming and
  replayed through an mmap-backed lazy reader in bounded memory;
- :mod:`repro.traces.readers` -- read and write Squid ``access.log``
  files, the one foreign input;
- :mod:`repro.traces.partition` -- clientid-mod-N proxy group assignment.
"""

from repro.traces.analysis import (
    fit_zipf_alpha,
    group_overlap_matrix,
    interreference_percentiles,
    sharing_potential,
    size_statistics,
)
from repro.traces.binary import BinaryTraceReader, pack_trace
from repro.traces.model import Request, Trace
from repro.traces.readers import read_squid_log, write_squid_log
from repro.traces.stats import compute_stats, mean_cacheable_size
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.traces.workloads import make_workload, pack_workload

__all__ = [
    "BinaryTraceReader",
    "Request",
    "SyntheticTraceConfig",
    "Trace",
    "compute_stats",
    "fit_zipf_alpha",
    "generate_trace",
    "group_overlap_matrix",
    "interreference_percentiles",
    "make_workload",
    "mean_cacheable_size",
    "pack_trace",
    "pack_workload",
    "read_squid_log",
    "sharing_potential",
    "size_statistics",
    "write_squid_log",
]
