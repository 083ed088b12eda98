"""Trace-engine benchmarks: pack/scan throughput and bounded memory.

The streaming trace engine's claims are quantitative -- a trace packs
at disk-friendly rates, replays lazily from mmap, and peak RSS stays
flat as the trace grows -- so they are measured, not asserted.  This
module produces the numbers behind ``benchmarks/BENCH_traces.json``:

- :func:`bench_pack` -- stream a synthetic workload straight from the
  generator core into a ``.sctr`` file, reporting records/second and
  bytes/record;
- :func:`bench_scan` -- a full streamed decode of the packed file,
  reporting replay records/second;
- :func:`measure_replay_rss` -- replay the packed trace through
  :func:`~repro.sharing.summary_sharing.simulate_summary_sharing` in a
  **spawned** subprocess and report that process's peak RSS.  Peak RSS
  is a high-water mark that never decreases within a process, so each
  measurement needs a fresh interpreter: a spawn (not fork) child
  whose memory history starts clean;
- :func:`bit_exact_check` -- replay the same workload once from the
  materialized in-memory trace and once from the mmap reader and
  assert the two :class:`~repro.sharing.results.SharingResult` objects
  are equal field-for-field.

The RSS ladder holds the working set fixed (``num_requests`` overrides
the request count only; clients and documents stay put) while the
trace length grows 10x, so a flat profile is attributable to the
streaming replay path rather than to a shrinking workload.
"""

from __future__ import annotations

import multiprocessing
import os
from time import perf_counter
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_summary_sharing,
)
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.traces.binary import BinaryTraceReader
from repro.traces.workloads import pack_workload, workload_config

__all__ = [
    "bench_pack",
    "bench_scan",
    "bit_exact_check",
    "measure_replay_rss",
    "REPLAY_MODES",
]

#: How :func:`measure_replay_rss` feeds the simulator.
REPLAY_MODES = ("stream", "materialized")

#: Per-proxy cache capacity for the replay benchmarks.  Fixed in bytes
#: (not a fraction of the infinite cache size) so the simulator's own
#: memory is identical across the RSS ladder and only the trace-side
#: memory varies with trace length.
REPLAY_CACHE_BYTES = 4 * 1024 * 1024


def bench_pack(
    workload: str,
    path: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
    num_requests: Optional[int] = None,
) -> Dict[str, Any]:
    """Pack *workload* into *path*, timing the generate-and-write loop."""
    start = perf_counter()
    records, groups = pack_workload(
        workload, path, scale=scale, seed=seed, num_requests=num_requests
    )
    elapsed = perf_counter() - start
    file_bytes = os.path.getsize(path)
    return {
        "workload": workload,
        "records": records,
        "groups": groups,
        "file_bytes": file_bytes,
        "bytes_per_record": round(file_bytes / records, 2) if records else 0,
        "pack_seconds": round(elapsed, 3),
        "pack_records_per_second": (
            round(records / elapsed) if elapsed > 0 else 0
        ),
    }


def bench_scan(path: str) -> Dict[str, Any]:
    """Fully decode *path* once, streaming, timing the scan."""
    with_reader = BinaryTraceReader(path)
    try:
        start = perf_counter()
        records = 0
        for _ in with_reader:
            records += 1
        elapsed = perf_counter() - start
    finally:
        with_reader.close()
    return {
        "records": records,
        "scan_seconds": round(elapsed, 3),
        "scan_records_per_second": (
            round(records / elapsed) if elapsed > 0 else 0
        ),
    }


def _replay(
    trace: Any, groups: int, threshold: float
) -> Dict[str, Any]:
    """Run the benchmark's standard summary-sharing replay over *trace*."""
    cfg = SummarySharingConfig(
        summary=SummaryConfig(kind="bloom", load_factor=8),
        update_policy=ThresholdUpdatePolicy(threshold),
        expected_doc_size=8 * 1024,
    )
    start = perf_counter()
    result = simulate_summary_sharing(
        trace, groups, REPLAY_CACHE_BYTES, cfg
    )
    elapsed = perf_counter() - start
    return {
        "requests": result.requests,
        "total_hit_ratio": round(result.total_hit_ratio, 4),
        "false_hit_ratio": round(result.false_hit_ratio, 5),
        "replay_seconds": round(elapsed, 3),
        "replay_records_per_second": (
            round(result.requests / elapsed) if elapsed > 0 else 0
        ),
    }


def _rss_worker(
    path: str, mode: str, groups: int, threshold: float, queue
) -> None:
    """Spawn target: replay *path* in *mode*, report peak RSS.

    Runs in a fresh interpreter so its ``ru_maxrss`` high-water mark
    reflects only this replay.  Module-level so the spawn start method
    can import it by qualified name.
    """
    from repro.simulation.scale import peak_rss_bytes

    reader = BinaryTraceReader(path)
    try:
        baseline_rss = peak_rss_bytes()
        if mode == "materialized":
            trace: Any = reader.materialize()
        else:
            trace = reader
        payload = _replay(trace, groups, threshold)
        payload["mode"] = mode
        payload["baseline_rss_bytes"] = baseline_rss
        payload["peak_rss_bytes"] = peak_rss_bytes()
    finally:
        reader.close()
    queue.put(payload)


def measure_replay_rss(
    path: str,
    mode: str = "stream",
    groups: int = 16,
    threshold: float = 0.01,
) -> Dict[str, Any]:
    """Replay *path* in a spawned subprocess; return its stats + peak RSS.

    ``mode="stream"`` feeds the mmap reader straight into the
    simulator; ``mode="materialized"`` first builds the full in-memory
    :class:`~repro.traces.model.Trace`, the baseline the streaming path
    is measured against.
    """
    if mode not in REPLAY_MODES:
        raise ConfigurationError(
            f"mode must be one of {REPLAY_MODES}, got {mode!r}"
        )
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(
        target=_rss_worker, args=(path, mode, groups, threshold, queue)
    )
    proc.start()
    payload = queue.get()
    proc.join()
    if proc.exitcode != 0:
        raise ConfigurationError(
            f"replay subprocess exited with code {proc.exitcode}"
        )
    return payload


def bit_exact_check(
    workload: str,
    path: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
    num_requests: Optional[int] = None,
    threshold: float = 0.01,
) -> Dict[str, Any]:
    """Replay *path* and the regenerated in-memory trace; compare.

    Returns the two result summaries plus a ``bit_exact`` flag that is
    true iff the full :class:`~repro.sharing.results.SharingResult`
    dataclasses (every counter, every byte total) compare equal.
    """
    from repro.traces.synthetic import generate_trace

    config, groups = workload_config(
        workload, scale=scale, seed=seed, num_requests=num_requests
    )
    trace = generate_trace(config)
    reader = BinaryTraceReader(path)
    try:
        cfg = SummarySharingConfig(
            summary=SummaryConfig(kind="bloom", load_factor=8),
            update_policy=ThresholdUpdatePolicy(threshold),
            expected_doc_size=8 * 1024,
        )
        in_memory = simulate_summary_sharing(
            trace, groups, REPLAY_CACHE_BYTES, cfg
        )
        streamed = simulate_summary_sharing(
            reader, groups, REPLAY_CACHE_BYTES, cfg
        )
    finally:
        reader.close()
    return {
        "requests": in_memory.requests,
        "bit_exact": in_memory == streamed,
        "in_memory_hit_ratio": round(in_memory.total_hit_ratio, 6),
        "streamed_hit_ratio": round(streamed.total_hit_ratio, 6),
    }
