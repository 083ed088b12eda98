"""Experiment runners regenerating every table and figure in the paper.

This module is the one place a configuration becomes a table's
numbers.  A runner returns either ``(headers, rows)`` ready for
:func:`repro.analysis.tables.format_table` or, where a benchmark asserts
on the numbers, typed results plus a renderer that turns them into
those rows (:func:`table2` / :func:`table2_rows`, :func:`table45` /
:func:`table45_rows`, :func:`representations` /
:func:`representation_rows`, :func:`table3_rows`, :func:`dissemination`
/ :func:`dissemination_rows`, :func:`prototype` / :func:`prototype_rows`,
:func:`hierarchy` / :func:`hierarchy_rows`, :func:`alternatives` /
:func:`alternative_rows`).  The CLI prints the rows; ``benchmarks/``
asserts on the runners' results and writes the same rows.  The mapping
to the paper:

==================  ====================================================
Function            Paper artefact
==================  ====================================================
:func:`table1`      Table I   -- trace statistics
:func:`fig1`        Fig. 1    -- hit ratio vs cache size, 4 schemes
:func:`table2`      Table II  -- ICP/SC-ICP overhead, 4-proxy benchmark;
                    at 2, 4 and 8 proxies (:func:`des_scaling_rows`),
                    Section V-F's growth claim measured in the DES
:func:`fig2`        Fig. 2    -- update-delay threshold sweep
:func:`table3`      Table III -- summary memory as % of cache
:func:`fig4`        Fig. 4    -- false-positive probability curves
:func:`representations`  Figs. 5-8 -- per-representation hit ratios,
                    false hits, messages, and bytes (plus Table III
                    memory), all from one simulation sweep
:func:`table45`     Tables IV/V -- trace replay, both assignments
:func:`scalability` Section V-F -- 100-proxy extrapolation
:func:`dissemination`  Section V-F -- the 100-proxy cluster measured in
                    the DES, one cell per dissemination policy
:func:`prototype`   Section VII -- the asyncio prototype on localhost,
                    every mode and every summary representation
:func:`hierarchy`   Section VIII -- parent/child extension
:func:`alternatives`  related work -- ICP vs CARP vs directory server
==================  ====================================================

Simulated workloads are the synthetic stand-ins of
:mod:`repro.traces.workloads`; ``scale`` grows them toward the paper's
trace sizes (larger scale -> closer to the paper's message-ratio regime,
longer runtime).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.scalability import extrapolate
from repro.core.bfmath import example_table, fig4_series
from repro.obs.registry import MetricsRegistry
from repro.proxy.cluster import ClusterResult, ProxyCluster
from repro.proxy.config import ProxyConfig, ProxyMode
from repro.sharing.carp import CarpResult, simulate_carp
from repro.sharing.directory_server import (
    DirectoryServerLoad,
    simulate_directory_server,
)
from repro.sharing.hierarchy import HierarchyResult, simulate_hierarchy
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
from repro.simulation.parallel import fig5_grid, run_cells
from repro.simulation.scale import (
    DISSEMINATION_POLICIES,
    ScaleResult,
    run_scale_experiment,
)
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy, UpdatePolicy
from repro.traces.binary import BinaryTraceReader
from repro.traces.partition import TraceLike
from repro.traces.stats import compute_stats, mean_cacheable_size
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.traces.workloads import (
    WORKLOAD_PRESETS,
    make_workload,
    pack_workload,
)

ALL_WORKLOADS: Tuple[str, ...] = tuple(WORKLOAD_PRESETS)

#: Cache size as a fraction of the infinite cache size used by the
#: paper's headline simulations ("assume a cache size that is 10% of the
#: infinite cache size").
DEFAULT_CACHE_FRACTION = 0.10

Headers = Sequence[str]
Rows = List[Sequence[object]]


def cache_sizes(
    trace: TraceLike,
    groups: int,
    cache_fraction: float = DEFAULT_CACHE_FRACTION,
) -> Tuple[int, int]:
    """Per-proxy capacity and expected document size for *trace*.

    The paper's sizing rule: *groups* proxies split *cache_fraction* of
    the trace's infinite cache size evenly, and a Bloom summary expects
    that capacity over the mean cacheable document size.  Every runner,
    every simulation cell and the benchmarks size their caches here.
    """
    stats = compute_stats(trace)
    capacity = max(
        1, int(stats.infinite_cache_bytes * cache_fraction / groups)
    )
    return capacity, mean_cacheable_size(trace)


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
        capacity, _doc_size = cache_sizes(trace, groups, fraction)
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

_MODES = (ProxyMode.NO_ICP, ProxyMode.ICP, ProxyMode.SC_ICP)

ModeResults = Dict[ProxyMode, ExperimentResult]


def _three_modes(
    run: Callable[..., ExperimentResult], **settings: object
) -> ModeResults:
    """Run one DES experiment in each mode, no-ICP first."""
    return {mode: run(mode=mode, **settings) for mode in _MODES}


def table2(
    target_hit_ratio: float = 0.25,
    clients_per_proxy: int = 30,
    requests_per_client: int = 200,
    num_proxies: int = 4,
) -> ModeResults:
    """ICP overhead benchmark (Table II) at one inherent hit ratio."""
    return _three_modes(
        run_overhead_experiment,
        num_proxies=num_proxies,
        clients_per_proxy=clients_per_proxy,
        requests_per_client=requests_per_client,
        target_hit_ratio=target_hit_ratio,
    )


def udp_factor(result: ExperimentResult, baseline: ExperimentResult) -> float:
    """*result*'s UDP datagrams as a multiple of *baseline*'s."""
    return result.udp_messages / max(1, baseline.udp_messages)


def table2_rows(results: ModeResults) -> Tuple[Headers, Rows]:
    """Render :func:`table2`'s results as Table II rows.

    Rows: no-ICP, ICP, SC-ICP, then percentage-overhead rows vs no-ICP.
    The benchmark's clients share no documents, so there is no
    remote-HR column.
    """
    headers, mode_rows = table45_rows(results)
    rows: Rows = [(*row[:2], *row[3:]) for row in mode_rows]
    base = results[ProxyMode.NO_ICP]
    for mode in (ProxyMode.ICP, ProxyMode.SC_ICP):
        ov = results[mode].overhead_vs(base)
        rows.append(
            (
                f"{mode.value} overhead",
                "-",
                f"+{ov['latency']:.1f}%",
                f"+{ov['user_cpu']:.1f}%",
                f"+{ov['system_cpu']:.1f}%",
                f"{udp_factor(results[mode], base):.0f}x",
                f"+{ov['packets']:.1f}%",
            )
        )
    return (*headers[:2], *headers[3:]), rows


def protocol_udp_per_request(
    result: ExperimentResult, baseline: ExperimentResult
) -> float:
    """Protocol UDP per request, with *baseline*'s keep-alives netted
    out so only query/update traffic remains."""
    return (result.udp_messages - baseline.udp_messages) / result.requests


def des_scaling_rows(per_size: Dict[int, ModeResults]) -> Tuple[Headers, Rows]:
    """Render :func:`table2` runs at several cluster sizes as per-request
    protocol UDP and user-CPU overhead rows (Section V-F, measured)."""
    headers = (
        "proxies",
        "icp udp/req",
        "sc-icp udp/req",
        "icp user-cpu overhead",
        "sc-icp user-cpu overhead",
    )
    rows: Rows = []
    for n, results in per_size.items():
        base = results[ProxyMode.NO_ICP]
        icp, sc = results[ProxyMode.ICP], results[ProxyMode.SC_ICP]
        rows.append(
            (
                n,
                f"{protocol_udp_per_request(icp, base):.2f}",
                f"{protocol_udp_per_request(sc, base):.2f}",
                f"+{icp.overhead_vs(base)['user_cpu']:.1f}%",
                f"+{sc.overhead_vs(base)['user_cpu']:.1f}%",
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
) -> Tuple[Headers, Rows]:
    """Impact of summary update delays (Fig. 2).

    Uses exact-directory summaries, as the paper does for this figure
    ("assume that the summary is a copy of the cache directory").
    Threshold 0 is the figure's no-delay top line.
    """
    trace, groups = make_workload(workload, scale=scale)
    capacity, doc_size = cache_sizes(trace, groups)
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


def representations(
    workload: str,
    scale: float = 1.0,
    threshold: float = 0.01,
    include_icp: bool = True,
    representation: Optional[str] = None,
    update_policy: Optional[UpdatePolicy] = None,
    jobs: int = 1,
) -> Dict[str, SharingResult]:
    """Run the Section V-D comparison over one workload.

    Returns results keyed by representation label (plus ``"icp"``),
    carrying everything Figs. 5-8 and Table III report.
    ``representation`` narrows the sweep to one ``SummaryConfig.kind``;
    ``update_policy`` replaces the default threshold policy.  Each
    representation is one :class:`~repro.simulation.parallel.
    ExperimentCell` run by :func:`~repro.simulation.parallel.run_cells`:
    ``jobs`` above 1 fans the cells across worker processes, and any
    ``jobs`` gives bit-identical results.
    """
    policy = update_policy or ThresholdUpdatePolicy(threshold)
    cells = [
        replace(cell, update_policy=policy)
        for cell in fig5_grid([workload], include_icp=include_icp, scale=scale)
        if cell.summary is None
        or representation in (None, cell.summary.kind)
    ]
    return {
        cell.representation: result
        for cell, result in zip(cells, run_cells(cells, jobs=jobs))
    }


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

    The whole workloads-x-representations grid goes to
    :func:`~repro.simulation.parallel.run_cells` in one batch, so with
    ``jobs`` above 1 the pool stays saturated.
    """
    cells = fig5_grid(
        workloads, thresholds=(threshold,), include_icp=False, scale=scale
    )
    per_workload: Dict[str, Dict[str, SharingResult]] = {}
    for cell, result in zip(cells, run_cells(cells, jobs=jobs)):
        per_workload.setdefault(cell.workload, {})[cell.representation] = result
    return table3_rows(per_workload)


def table3_rows(
    per_workload: Dict[str, Dict[str, SharingResult]],
) -> Tuple[Headers, Rows]:
    """Render one representation sweep per workload as Table III rows."""
    headers = ("trace",) + tuple(c.label() for c in REPRESENTATIONS)
    rows: Rows = [
        (name,)
        + tuple(
            f"{results[c.label()].summary_memory_ratio * 100:.2f}%"
            for c in REPRESENTATIONS
        )
        for name, results in per_workload.items()
    ]
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
) -> ModeResults:
    """Trace replay through the simulated cluster (Tables IV/V).

    ``assignment`` selects experiment 3 (``client-bound``) or
    experiment 4 (``round-robin``).
    """
    trace, _groups = make_workload(workload, scale=scale)
    if num_requests is not None:
        trace = trace.head(num_requests)
    return _three_modes(
        run_replay_experiment,
        trace=trace,
        num_proxies=num_proxies,
        clients_per_proxy=clients_per_proxy,
        assignment=assignment,
    )


def table45_rows(results: ModeResults) -> Tuple[Headers, Rows]:
    """Render :func:`table45`'s results as Table IV or V rows, one per
    mode (:func:`table2_rows` drops the remote-HR column)."""
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
    rows: Rows = [
        (
            r.mode,
            f"{r.hit_ratio:.3f}",
            f"{r.remote_hit_ratio:.3f}",
            f"{r.mean_latency:.3f}",
            f"{r.user_cpu:.1f}",
            f"{r.system_cpu:.1f}",
            r.udp_messages,
            r.total_packets,
        )
        for r in results.values()
    ]
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


def dissemination(
    workload: str = "upisa",
    scale: float = 1.0,
    seed: Optional[int] = None,
    num_requests: Optional[int] = None,
    num_proxies: int = 100,
    policies: Sequence[str] = DISSEMINATION_POLICIES,
    fanout: int = 4,
    cache_capacity: int = 8 * 2**20,
    threshold: float = 0.01,
    trace_path: Optional[str] = None,
) -> Dict[str, ScaleResult]:
    """The measured Section V-F run, one DES cell per dissemination policy.

    The workload is packed into a temporary ``.sctr`` file, or the
    packed trace at *trace_path* is replayed instead, and every cell
    streams it from one mmap-backed reader.  Each result carries the
    Section V-F extrapolation at its own geometry as ``predicted``.
    """
    with tempfile.TemporaryDirectory(prefix="sctr-scale-") as tempdir:
        if trace_path is None:
            trace_path = os.path.join(tempdir, f"{workload}.sctr")
            pack_workload(workload, trace_path, scale, seed, num_requests)
        with BinaryTraceReader(trace_path) as reader:
            return {
                policy: run_scale_experiment(
                    reader,
                    num_proxies=num_proxies,
                    dissemination=policy,
                    fanout=fanout,
                    cache_capacity=cache_capacity,
                    update_threshold=threshold,
                )
                for policy in policies
            }


def dissemination_rows(
    results: Dict[str, ScaleResult],
) -> Tuple[Headers, Rows]:
    """Render :func:`dissemination`'s results, one row per policy."""
    headers = (
        "policy",
        "hit-ratio",
        "false-hit",
        "updates",
        "upd/req",
        "max-sender",
        "RSS-MiB",
        "wall-s",
    )
    rows: Rows = [
        (
            policy,
            f"{r.hit_ratio:.3f}",
            f"{r.false_hit_ratio:.4f}",
            f"{r.update_messages:,}",
            f"{r.update_messages_per_request:.3f}",
            f"{r.sender_max_dirupdates:,}",
            f"{r.peak_rss_bytes / (1 << 20):.0f}",
            f"{r.wall_seconds:.1f}",
        )
        for policy, r in results.items()
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Section VII: the asyncio prototype on localhost sockets
# ----------------------------------------------------------------------

#: Requests in the trace every prototype run replays.
PROTOTYPE_REQUESTS = 2000


def prototype() -> Dict[Tuple[ProxyMode, str], ClusterResult]:
    """The live-socket counterpart of Tables II/IV/V and Section V.

    Four proxies replay one synthetic trace over real localhost sockets
    in every mode with Bloom summaries, then in SC-ICP with each other
    summary representation.  Results are keyed by ``(mode, kind)``.
    """
    trace = generate_trace(
        SyntheticTraceConfig(
            name="prototype-bench",
            num_requests=PROTOTYPE_REQUESTS,
            num_clients=32,
            num_documents=700,
            mean_size=2048,
            max_size=64 * 1024,
            mod_probability=0.0,
            seed=55,
        )
    )

    async def replay(mode: ProxyMode, kind: str) -> ClusterResult:
        async with ProxyCluster(
            num_proxies=4,
            mode=mode,
            cache_capacity=2 * 2**20,
            origin_delay=0.001,
            base_config=ProxyConfig(
                summary=SummaryConfig(kind=kind, load_factor=8),
                expected_doc_size=2048,
            ),
        ) as cluster:
            return await cluster.replay(trace, clients_per_proxy=4)

    runs = [(mode, "bloom") for mode in _MODES] + [
        (ProxyMode.SC_ICP, kind) for kind in ("exact-directory", "server-name")
    ]
    return {run: asyncio.run(replay(*run)) for run in runs}


def prototype_rows(
    results: Dict[str, ClusterResult],
) -> Tuple[Headers, Rows]:
    """Render labelled :func:`prototype` runs, one row each."""
    headers = (
        "mode",
        "hit-ratio",
        "remote-hits",
        "udp-sent",
        "queries",
        "dir-updates",
        "false-rounds",
        "latency",
    )
    rows: Rows = [
        (
            label,
            f"{r.total_hit_ratio:.3f}",
            sum(s.remote_hits for s in r.proxy_stats),
            r.udp_total,
            sum(s.icp_queries_sent for s in r.proxy_stats),
            sum(s.dirupdates_sent for s in r.proxy_stats),
            sum(s.false_query_rounds for s in r.proxy_stats),
            f"{r.client_report.mean_latency * 1000:.2f} ms",
        )
        for label, r in results.items()
    ]
    return headers, rows


# ----------------------------------------------------------------------
# Extensions: hierarchy (Section VIII) and related-work comparisons
# ----------------------------------------------------------------------

def hierarchy(
    workload: str = "questnet", scale: float = 1.0
) -> Dict[str, HierarchyResult]:
    """Parent/child hierarchy with and without SC-ICP sibling sharing.

    The children split 5% of the infinite cache size and the one parent
    holds 20%.  Results are keyed by configuration label.
    """
    trace, groups = make_workload(workload, scale=scale)
    child_capacity, _doc_size = cache_sizes(trace, groups, 0.05)
    parent_capacity, _doc_size = cache_sizes(trace, 1, 0.20)
    return {
        label: simulate_hierarchy(
            trace,
            num_children=groups,
            child_capacity=child_capacity,
            parent_capacity=parent_capacity,
            sibling_sharing=sibling,
        )
        for label, sibling in (
            ("hierarchy only", False),
            ("hierarchy + SC-ICP siblings", True),
        )
    }


def hierarchy_rows(
    results: Dict[str, HierarchyResult],
) -> Tuple[Headers, Rows]:
    """Render :func:`hierarchy`'s results as Section VIII rows."""
    headers = (
        "configuration",
        "child-HR",
        "sibling-HR",
        "parent-load",
        "total-HR",
        "origin-traffic",
    )
    rows: Rows = [
        (
            label,
            f"{r.child_hit_ratio:.3f}",
            f"{r.sibling_hits / r.requests:.3f}",
            f"{r.parent_requests / r.requests:.3f}",
            f"{r.total_hit_ratio:.3f}",
            f"{r.origin_traffic_ratio:.3f}",
        )
        for label, r in results.items()
    ]
    return headers, rows


class Alternatives(NamedTuple):
    """The related-work comparison on one workload."""

    icp: SharingResult
    carp: CarpResult
    directory_server: SharingResult
    directory_load: DirectoryServerLoad
    bloom: SharingResult


def alternatives(
    workload: str = "ucb",
    scale: float = 1.0,
    threshold: float = 0.01,
) -> Alternatives:
    """Summary cache vs ICP, CARP, and the central directory server."""
    trace, groups = make_workload(workload, scale=scale)
    capacity, doc_size = cache_sizes(trace, groups)
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
    return Alternatives(icp, carp, dserver, load, bloom)


def alternative_rows(result: Alternatives) -> Tuple[Headers, Rows]:
    """Render :func:`alternatives`' results as one row per protocol."""
    icp, carp, dserver, load, bloom = result
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
    trace, groups = make_workload(workload, scale=scale)
    capacity, doc_size = cache_sizes(trace, groups)
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
