"""Experiment runners regenerating every table and figure in the paper.

Each function returns ``(headers, rows)`` ready for
:func:`repro.analysis.tables.format_table`; the CLI prints them and the
benchmark harness asserts on their shape.  The mapping to the paper:

==================  ====================================================
Function            Paper artefact
==================  ====================================================
:func:`table1`      Table I   -- trace statistics
:func:`fig1`        Fig. 1    -- hit ratio vs cache size, 4 schemes
:func:`table2`      Table II  -- ICP/SC-ICP overhead, 4-proxy benchmark
:func:`fig2`        Fig. 2    -- update-delay threshold sweep
:func:`table3`      Table III -- summary memory as % of cache
:func:`fig4`        Fig. 4    -- false-positive probability curves
:func:`representations`  Figs. 5-8 -- per-representation hit ratios,
                    false hits, messages, and bytes (plus Table III
                    memory), all from one simulation sweep
:func:`table45`     Tables IV/V -- trace replay, both assignments
:func:`scalability` Section V-F -- 100-proxy extrapolation
:func:`hierarchy`   Section VIII -- parent/child extension
:func:`alternatives`  related work -- ICP vs CARP vs directory server
==================  ====================================================

Simulated workloads are the synthetic stand-ins of
:mod:`repro.traces.workloads`; ``scale`` grows them toward the paper's
trace sizes (larger scale -> closer to the paper's message-ratio regime,
longer runtime).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.scalability import extrapolate
from repro.core.bfmath import example_table, fig4_series
from repro.obs.registry import MetricsRegistry
from repro.proxy.config import ProxyMode
from repro.sharing.carp import simulate_carp
from repro.sharing.directory_server import simulate_directory_server
from repro.sharing.hierarchy import simulate_hierarchy
from repro.sharing.results import SharingResult
from repro.sharing.schemes import (
    simulate_global_cache,
    simulate_no_sharing,
    simulate_simple_sharing,
    simulate_single_copy_sharing,
)
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_summary_sharing,
)
from repro.simulation.experiment import (
    ExperimentResult,
    run_overhead_experiment,
    run_replay_experiment,
)
from repro.simulation.parallel import ExperimentCell, run_cells
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy, UpdatePolicy
from repro.traces.model import Trace
from repro.traces.stats import compute_stats, mean_cacheable_size
from repro.traces.workloads import WORKLOAD_PRESETS, make_workload

ALL_WORKLOADS: Tuple[str, ...] = tuple(WORKLOAD_PRESETS)

#: Cache size as a fraction of the infinite cache size used by the
#: paper's headline simulations ("assume a cache size that is 10% of the
#: infinite cache size").
DEFAULT_CACHE_FRACTION = 0.10

Headers = Sequence[str]
Rows = List[Sequence[object]]


def _workload_setup(name: str, scale: float, cache_fraction: float):
    """Generate a workload and derive per-proxy capacity and doc size."""
    trace, groups = make_workload(name, scale=scale)
    stats = compute_stats(trace)
    capacity = max(
        1, int(stats.infinite_cache_bytes * cache_fraction / groups)
    )
    doc_size = mean_cacheable_size(trace)
    return trace, groups, capacity, doc_size, stats


# ----------------------------------------------------------------------
# Table I
# ----------------------------------------------------------------------

def table1(
    workloads: Sequence[str] = ALL_WORKLOADS, scale: float = 1.0
) -> Tuple[Headers, Rows]:
    """Trace statistics (Table I)."""
    headers = (
        "trace",
        "duration",
        "requests",
        "clients",
        "groups",
        "infinite-cache",
        "max-HR",
        "max-BHR",
    )
    rows: Rows = []
    for name in workloads:
        trace, groups = make_workload(name, scale=scale)
        s = compute_stats(trace)
        rows.append(
            (
                name,
                f"{s.duration_seconds / 60:.0f} min",
                s.num_requests,
                s.num_clients,
                groups,
                f"{s.infinite_cache_bytes / 2**20:.1f} MB",
                f"{s.max_hit_ratio:.3f}",
                f"{s.max_byte_hit_ratio:.3f}",
            )
        )
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 1
# ----------------------------------------------------------------------

def fig1(
    workload: str,
    scale: float = 1.0,
    cache_fractions: Sequence[float] = (0.005, 0.05, 0.10, 0.20),
) -> Tuple[Headers, Rows]:
    """Hit ratios of the four sharing schemes vs cache size (Fig. 1).

    Includes the paper's fifth series, a global cache 10% smaller.
    """
    trace, groups = make_workload(workload, scale=scale)
    stats = compute_stats(trace)
    headers = (
        "cache%",
        "no-sharing",
        "simple",
        "single-copy",
        "global",
        "global-0.9x",
    )
    rows: Rows = []
    for fraction in cache_fractions:
        capacity = max(
            1, int(stats.infinite_cache_bytes * fraction / groups)
        )
        results = [
            simulate_no_sharing(trace, groups, capacity),
            simulate_simple_sharing(trace, groups, capacity),
            simulate_single_copy_sharing(trace, groups, capacity),
            simulate_global_cache(trace, groups, capacity),
            simulate_global_cache(trace, groups, capacity, capacity_scale=0.9),
        ]
        rows.append(
            (f"{fraction * 100:g}%",)
            + tuple(f"{r.total_hit_ratio:.3f}" for r in results)
        )
    return headers, rows


# ----------------------------------------------------------------------
# Table II
# ----------------------------------------------------------------------

def table2(
    target_hit_ratio: float = 0.25,
    clients_per_proxy: int = 30,
    requests_per_client: int = 200,
    num_proxies: int = 4,
) -> Tuple[Headers, Rows]:
    """ICP overhead benchmark (Table II) at one inherent hit ratio.

    Rows: no-ICP, ICP, SC-ICP, then percentage-overhead rows vs no-ICP.
    """
    results: Dict[ProxyMode, ExperimentResult] = {}
    for mode in (ProxyMode.NO_ICP, ProxyMode.ICP, ProxyMode.SC_ICP):
        results[mode] = run_overhead_experiment(
            mode,
            num_proxies=num_proxies,
            clients_per_proxy=clients_per_proxy,
            requests_per_client=requests_per_client,
            target_hit_ratio=target_hit_ratio,
        )
    headers = (
        "config",
        "hit-ratio",
        "latency(s)",
        "user-cpu(s)",
        "sys-cpu(s)",
        "udp-msgs",
        "total-pkts",
    )
    rows: Rows = []
    base = results[ProxyMode.NO_ICP]
    for mode, r in results.items():
        rows.append(
            (
                r.mode,
                f"{r.hit_ratio:.3f}",
                f"{r.mean_latency:.3f}",
                f"{r.user_cpu:.1f}",
                f"{r.system_cpu:.1f}",
                r.udp_sent + r.udp_received,
                r.total_packets,
            )
        )
    for mode in (ProxyMode.ICP, ProxyMode.SC_ICP):
        ov = results[mode].overhead_vs(base)
        rows.append(
            (
                f"{mode.value} overhead",
                "-",
                f"+{ov['latency']:.1f}%",
                f"+{ov['user_cpu']:.1f}%",
                f"+{ov['system_cpu']:.1f}%",
                f"{(results[mode].udp_sent + results[mode].udp_received) / max(1, base.udp_sent + base.udp_received):.0f}x",
                f"+{ov['packets']:.1f}%",
            )
        )
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 2
# ----------------------------------------------------------------------

def fig2(
    workload: str,
    scale: float = 1.0,
    thresholds: Sequence[float] = (0.0, 0.001, 0.01, 0.02, 0.05, 0.10),
    cache_fraction: float = DEFAULT_CACHE_FRACTION,
) -> Tuple[Headers, Rows]:
    """Impact of summary update delays (Fig. 2).

    Uses exact-directory summaries, as the paper does for this figure
    ("assume that the summary is a copy of the cache directory").
    Threshold 0 is the figure's no-delay top line.
    """
    trace, groups, capacity, doc_size, _stats = _workload_setup(
        workload, scale, cache_fraction
    )
    headers = (
        "threshold",
        "total-HR",
        "false-miss",
        "false-hit",
        "stale-hit",
        "upd-msgs/req",
    )
    rows: Rows = []
    for threshold in thresholds:
        cfg = SummarySharingConfig(
            summary=SummaryConfig(kind="exact-directory"),
            update_policy=ThresholdUpdatePolicy(threshold),
            expected_doc_size=doc_size,
        )
        r = simulate_summary_sharing(trace, groups, capacity, cfg)
        rows.append(
            (
                f"{threshold * 100:g}%",
                f"{r.total_hit_ratio:.4f}",
                f"{r.false_miss_ratio:.4f}",
                f"{r.false_hit_ratio:.4f}",
                f"{r.remote_stale_hit_ratio:.4f}",
                f"{r.messages.update_messages / r.requests:.4f}",
            )
        )
    return headers, rows


# ----------------------------------------------------------------------
# Figs. 5-8 and Table III: the representation sweep
# ----------------------------------------------------------------------

REPRESENTATIONS: Tuple[SummaryConfig, ...] = (
    SummaryConfig(kind="exact-directory"),
    SummaryConfig(kind="server-name"),
    SummaryConfig(kind="bloom", load_factor=8),
    SummaryConfig(kind="bloom", load_factor=16),
    SummaryConfig(kind="bloom", load_factor=32),
)


def _representation_cells(
    workload: str,
    sweep: Sequence[SummaryConfig],
    scale: float,
    threshold: float,
    cache_fraction: float,
    include_icp: bool,
) -> List[Tuple[str, ExperimentCell]]:
    """(label, cell) pairs mirroring one :func:`representations` sweep."""
    pairs = [
        (
            c.label(),
            ExperimentCell(
                workload=workload,
                kind=c.kind,
                load_factor=c.load_factor,
                threshold=threshold,
                scale=scale,
                cache_fraction=cache_fraction,
            ),
        )
        for c in sweep
    ]
    if include_icp:
        pairs.append(
            (
                "icp",
                ExperimentCell(
                    workload=workload,
                    kind="icp",
                    scale=scale,
                    cache_fraction=cache_fraction,
                ),
            )
        )
    return pairs


def representations(
    workload: str,
    scale: float = 1.0,
    threshold: float = 0.01,
    cache_fraction: float = DEFAULT_CACHE_FRACTION,
    include_icp: bool = True,
    representation: Optional[str] = None,
    update_policy: Optional[UpdatePolicy] = None,
    jobs: int = 1,
) -> Dict[str, SharingResult]:
    """Run the Section V-D comparison over one workload.

    Returns results keyed by representation label (plus ``"icp"``),
    carrying everything Figs. 5-8 and Table III report.
    ``representation`` narrows the sweep to one ``SummaryConfig.kind``;
    ``update_policy`` replaces the default threshold policy.  ``jobs``
    above 1 fans the per-representation cells across worker processes
    (:mod:`repro.simulation.parallel`); results are bit-exact with the
    serial run.  A custom ``update_policy`` cannot be described by an
    :class:`~repro.simulation.parallel.ExperimentCell`, so it forces the
    serial path.
    """
    sweep: Sequence[SummaryConfig] = REPRESENTATIONS
    if representation is not None:
        sweep = tuple(
            c for c in REPRESENTATIONS if c.kind == representation
        )
    if jobs > 1 and update_policy is None:
        pairs = _representation_cells(
            workload, sweep, scale, threshold, cache_fraction, include_icp
        )
        outcomes = run_cells([cell for _, cell in pairs], jobs=jobs)
        return {
            label: outcome
            for (label, _), outcome in zip(pairs, outcomes)
        }
    trace, groups, capacity, doc_size, _stats = _workload_setup(
        workload, scale, cache_fraction
    )
    policy = update_policy or ThresholdUpdatePolicy(threshold)
    results: Dict[str, SharingResult] = {}
    for summary_config in sweep:
        cfg = SummarySharingConfig(
            summary=summary_config,
            update_policy=policy,
            expected_doc_size=doc_size,
        )
        results[summary_config.label()] = simulate_summary_sharing(
            trace, groups, capacity, cfg
        )
    if include_icp:
        results["icp"] = simulate_icp(trace, groups, capacity)
    return results


def representation_rows(
    results: Dict[str, SharingResult],
) -> Tuple[Headers, Rows]:
    """Render a representation sweep as combined Fig. 5-8/Table III rows."""
    headers = (
        "summary",
        "total-HR",
        "false-hit",
        "msgs/req",
        "bytes/req",
        "memory%",
    )
    rows: Rows = []
    for label, r in results.items():
        rows.append(
            (
                label,
                f"{r.total_hit_ratio:.3f}",
                f"{r.false_hit_ratio:.4f}",
                f"{r.messages_per_request:.3f}",
                f"{r.message_bytes_per_request:.0f}",
                f"{r.summary_memory_ratio * 100:.2f}"
                if label != "icp"
                else "-",
            )
        )
    return headers, rows


def table3(
    workloads: Sequence[str] = ALL_WORKLOADS,
    scale: float = 1.0,
    threshold: float = 0.01,
    jobs: int = 1,
) -> Tuple[Headers, Rows]:
    """Summary memory as % of proxy cache size (Table III).

    ``jobs`` above 1 fans the whole workloads-x-representations grid
    across worker processes in one batch (rather than parallelising
    within each workload), so the pool stays saturated.
    """
    headers = ("trace",) + tuple(c.label() for c in REPRESENTATIONS)
    per_workload: Dict[str, Dict[str, SharingResult]] = {}
    if jobs > 1:
        pairs = [
            (name, label, cell)
            for name in workloads
            for label, cell in _representation_cells(
                name, REPRESENTATIONS, scale, threshold,
                DEFAULT_CACHE_FRACTION, False,
            )
        ]
        outcomes = run_cells([cell for _, _, cell in pairs], jobs=jobs)
        for (name, label, _), outcome in zip(pairs, outcomes):
            per_workload.setdefault(name, {})[label] = outcome
    else:
        for name in workloads:
            per_workload[name] = representations(
                name, scale=scale, threshold=threshold, include_icp=False
            )
    rows: Rows = []
    for name in workloads:
        results = per_workload[name]
        rows.append(
            (name,)
            + tuple(
                f"{results[c.label()].summary_memory_ratio * 100:.2f}%"
                for c in REPRESENTATIONS
            )
        )
    return headers, rows


# ----------------------------------------------------------------------
# Fig. 4
# ----------------------------------------------------------------------

def fig4() -> Tuple[Headers, Rows]:
    """False-positive probability vs bits per entry (Fig. 4)."""
    xs, with_four, with_optimal = fig4_series()
    headers = ("bits/entry", "p(k=4)", "k-opt", "p(k-opt)")
    rows: Rows = []
    example = {lf: row for row in example_table() for lf in [row[0]]}
    for x, p4, popt in zip(xs, with_four, with_optimal):
        k_opt = example[x][3] if x in example else "-"
        rows.append((x, f"{p4:.2e}", k_opt, f"{popt:.2e}"))
    return headers, rows


# ----------------------------------------------------------------------
# Tables IV and V
# ----------------------------------------------------------------------

def table45(
    assignment: str = "client-bound",
    workload: str = "upisa",
    scale: float = 1.0,
    num_requests: Optional[int] = 24_000,
    num_proxies: int = 4,
    clients_per_proxy: int = 20,
) -> Tuple[Headers, Rows]:
    """Trace replay through the simulated cluster (Tables IV/V).

    ``assignment`` selects experiment 3 (``client-bound``) or
    experiment 4 (``round-robin``).
    """
    trace, _groups = make_workload(workload, scale=scale)
    if num_requests is not None:
        trace = trace.head(num_requests)
    results: Dict[ProxyMode, ExperimentResult] = {}
    for mode in (ProxyMode.NO_ICP, ProxyMode.ICP, ProxyMode.SC_ICP):
        results[mode] = run_replay_experiment(
            trace,
            mode,
            num_proxies=num_proxies,
            clients_per_proxy=clients_per_proxy,
            assignment=assignment,
        )
    headers = (
        "config",
        "hit-ratio",
        "remote-HR",
        "latency(s)",
        "user-cpu(s)",
        "sys-cpu(s)",
        "udp-msgs",
        "total-pkts",
    )
    rows: Rows = []
    for r in results.values():
        rows.append(
            (
                r.mode,
                f"{r.hit_ratio:.3f}",
                f"{r.remote_hit_ratio:.3f}",
                f"{r.mean_latency:.3f}",
                f"{r.user_cpu:.1f}",
                f"{r.system_cpu:.1f}",
                r.udp_sent + r.udp_received,
                r.total_packets,
            )
        )
    return headers, rows


# ----------------------------------------------------------------------
# Section V-F
# ----------------------------------------------------------------------

def scalability(
    proxy_counts: Sequence[int] = (16, 32, 64, 100, 200),
) -> Tuple[Headers, Rows]:
    """The 100-proxy extrapolation, swept over cluster sizes."""
    headers = (
        "proxies",
        "summary-MB/proxy",
        "counter-MB",
        "upd-msgs/req",
        "false-hit-q/req",
        "total-msgs/req",
    )
    rows: Rows = []
    for n in proxy_counts:
        est = extrapolate(num_proxies=n)
        rows.append(
            (
                n,
                f"{est.summary_memory_bytes / 2**20:.0f}",
                f"{est.counter_memory_bytes / 2**20:.0f}",
                f"{est.update_messages_per_request:.4f}",
                f"{est.false_hit_queries_per_request:.4f}",
                f"{est.protocol_messages_per_request:.4f}",
            )
        )
    return headers, rows


# ----------------------------------------------------------------------
# Extensions: hierarchy (Section VIII) and related-work comparisons
# ----------------------------------------------------------------------

def hierarchy(
    workload: str = "questnet",
    scale: float = 1.0,
    child_cache_fraction: float = 0.05,
    parent_cache_fraction: float = 0.20,
) -> Tuple[Headers, Rows]:
    """Parent/child hierarchy with and without SC-ICP sibling sharing."""
    trace, groups = make_workload(workload, scale=scale)
    stats = compute_stats(trace)
    child_capacity = max(
        1, int(stats.infinite_cache_bytes * child_cache_fraction / groups)
    )
    parent_capacity = max(
        1, int(stats.infinite_cache_bytes * parent_cache_fraction)
    )
    headers = (
        "configuration",
        "child-HR",
        "sibling-HR",
        "parent-load",
        "total-HR",
        "origin-traffic",
    )
    rows: Rows = []
    for label, sibling in (
        ("hierarchy only", False),
        ("hierarchy + SC-ICP siblings", True),
    ):
        r = simulate_hierarchy(
            trace,
            num_children=groups,
            child_capacity=child_capacity,
            parent_capacity=parent_capacity,
            sibling_sharing=sibling,
        )
        rows.append(
            (
                label,
                f"{r.child_hit_ratio:.3f}",
                f"{r.sibling_hits / r.requests:.3f}",
                f"{r.parent_requests / r.requests:.3f}",
                f"{r.total_hit_ratio:.3f}",
                f"{r.origin_traffic_ratio:.3f}",
            )
        )
    return headers, rows


def alternatives(
    workload: str = "ucb",
    scale: float = 1.0,
    threshold: float = 0.01,
    cache_fraction: float = DEFAULT_CACHE_FRACTION,
) -> Tuple[Headers, Rows]:
    """Summary cache vs ICP, CARP, and the central directory server."""
    trace, groups, capacity, doc_size, _stats = _workload_setup(
        workload, scale, cache_fraction
    )
    icp = simulate_icp(trace, groups, capacity)
    carp = simulate_carp(trace, groups, capacity)
    dserver, load = simulate_directory_server(trace, groups, capacity)
    bloom = simulate_summary_sharing(
        trace,
        groups,
        capacity,
        SummarySharingConfig(
            summary=SummaryConfig(kind="bloom", load_factor=16),
            update_policy=ThresholdUpdatePolicy(threshold),
            expected_doc_size=doc_size,
        ),
    )
    headers = (
        "protocol",
        "hit-ratio",
        "interproxy-msgs/req",
        "wide-area-routed",
        "central-msgs/req",
    )
    rows: Rows = [
        (
            "icp",
            f"{icp.total_hit_ratio:.3f}",
            f"{icp.messages_per_request:.3f}",
            "0%",
            "-",
        ),
        (
            "carp",
            f"{carp.hit_ratio:.3f}",
            "0.000",
            f"{carp.remote_routing_ratio:.0%}",
            "-",
        ),
        (
            "directory-server",
            f"{dserver.total_hit_ratio:.3f}",
            f"{dserver.messages_per_request:.3f}",
            "0%",
            f"{load.per_request(dserver.requests):.2f}",
        ),
        (
            "summary-cache (bloom-16)",
            f"{bloom.total_hit_ratio:.3f}",
            f"{bloom.messages_per_request:.3f}",
            "0%",
            "-",
        ),
    ]
    return headers, rows


def _publish_metrics(
    registry: MetricsRegistry, result: SharingResult, elapsed: float
) -> None:
    """Write one finished run to *registry*, labelled by scheme.

    The replay loop counts into the :class:`~repro.sharing.results.
    SharingResult` alone, so the Figs. 6-8 series (false hits, messages,
    bytes) are copied from it and always agree with it.  Every
    non-live publish ships one message to each of the other proxies, so
    the drain count is the update messages over that fan-out.
    """
    labels = {"scheme": result.scheme}
    msgs = result.messages
    fanout = result.num_proxies - 1

    def counter(name: str, help: str, value: int) -> None:
        registry.counter(name, help, labels=labels).inc(value)

    counter("sharing_requests_total", "requests simulated", result.requests)
    counter(
        "sharing_local_hits_total",
        "fresh hits in the local cache",
        result.local_hits,
    )
    counter(
        "sharing_remote_hits_total",
        "fresh hits served by a peer",
        result.remote_hits,
    )
    counter(
        "sharing_false_hits_total",
        "query rounds where no queried peer held the document (Fig. 6)",
        result.false_hits,
    )
    counter(
        "sharing_false_misses_total",
        "fresh peer copies the summaries failed to reveal",
        result.false_misses,
    )
    counter(
        "sharing_query_messages_total",
        "ICP queries sent (Fig. 7)",
        msgs.query_messages,
    )
    counter(
        "sharing_query_bytes_total",
        "ICP query bytes sent (Fig. 8)",
        msgs.query_bytes,
    )
    counter(
        "sharing_update_drains_total",
        "summary deltas drained and published",
        msgs.update_messages // fanout if fanout else 0,
    )
    counter(
        "sharing_update_messages_total",
        "summary update messages shipped (Fig. 7)",
        msgs.update_messages,
    )
    counter(
        "sharing_update_bytes_total",
        "summary update bytes shipped (Fig. 8)",
        msgs.update_bytes,
    )
    registry.histogram(
        "sharing_simulation_seconds",
        "wall time of one sharing simulation",
        labels=labels,
    ).observe(elapsed)


def metrics_snapshot(
    workload: str = "upisa",
    scale: float = 1.0,
    threshold: float = 0.01,
    cache_fraction: float = DEFAULT_CACHE_FRACTION,
    representation: Optional[str] = None,
    update_policy: Optional[UpdatePolicy] = None,
) -> MetricsRegistry:
    """Run one sharing simulation + ICP and return their metrics.

    Backs ``summary-cache metrics``: replays one workload through
    ``simulate_summary_sharing`` (bloom load factor 8, or the
    ``SummaryConfig.kind`` *representation* names; *update_policy*
    replaces the threshold policy) and ``simulate_icp``, times each run,
    and writes both results into a fresh
    :class:`~repro.obs.registry.MetricsRegistry` it returns.
    """
    registry = MetricsRegistry()
    trace, groups, capacity, doc_size, _stats = _workload_setup(
        workload, scale, cache_fraction
    )
    cfg = SummarySharingConfig(
        summary=SummaryConfig(kind=representation or "bloom", load_factor=8),
        update_policy=update_policy or ThresholdUpdatePolicy(threshold),
        expected_doc_size=doc_size,
    )
    start = perf_counter()
    result = simulate_summary_sharing(trace, groups, capacity, cfg)
    _publish_metrics(registry, result, perf_counter() - start)
    start = perf_counter()
    result = simulate_icp(trace, groups, capacity)
    _publish_metrics(registry, result, perf_counter() - start)
    return registry
