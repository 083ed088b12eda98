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
- :mod:`repro.traces.readers` -- load/save traces as JSONL, CSV, and
  Squid access-log format;
- :mod:`repro.traces.binary` -- the packed binary format: struct-packed
  records plus a URL string table, written streaming and replayed
  through an mmap-backed lazy reader in bounded memory;
- :mod:`repro.traces.partition` -- clientid-mod-N proxy group assignment.
"""

from repro.traces.binary import (
    BinaryTraceReader,
    BinaryTraceWriter,
    TraceWindow,
    pack_trace,
)

from repro.traces.analysis import (
    SizeStats,
    fit_zipf_alpha,
    group_overlap_matrix,
    interreference_percentiles,
    sharing_potential,
    size_statistics,
)
from repro.traces.filters import (
    densify_clients,
    filter_clients,
    merge_traces,
    sample_requests,
    time_window,
)
from repro.traces.model import Request, Trace
from repro.traces.partition import (
    grouped_chunks,
    partition_by_client,
    split_by_group,
)
from repro.traces.readers import (
    read_csv,
    read_jsonl,
    read_squid_log,
    write_csv,
    write_jsonl,
    write_squid_log,
)
from repro.traces.stats import TraceStats, compute_stats, mean_cacheable_size
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_trace,
    iter_requests,
)
from repro.traces.workloads import (
    WORKLOAD_PRESETS,
    make_workload,
    pack_workload,
    workload_config,
)

__all__ = [
    "BinaryTraceReader",
    "BinaryTraceWriter",
    "Request",
    "SizeStats",
    "SyntheticTraceConfig",
    "Trace",
    "TraceStats",
    "TraceWindow",
    "WORKLOAD_PRESETS",
    "compute_stats",
    "densify_clients",
    "filter_clients",
    "fit_zipf_alpha",
    "generate_trace",
    "group_overlap_matrix",
    "interreference_percentiles",
    "iter_requests",
    "make_workload",
    "mean_cacheable_size",
    "merge_traces",
    "grouped_chunks",
    "pack_trace",
    "pack_workload",
    "partition_by_client",
    "sample_requests",
    "sharing_potential",
    "size_statistics",
    "time_window",
    "read_csv",
    "read_jsonl",
    "read_squid_log",
    "split_by_group",
    "workload_config",
    "write_csv",
    "write_jsonl",
    "write_squid_log",
]
