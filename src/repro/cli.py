"""Command-line interface: ``summary-cache <experiment> [options]``.

Every table and figure in the paper can be regenerated from the shell::

    summary-cache table1
    summary-cache fig1 --workload upisa
    summary-cache fig2 --workload dec --scale 2
    summary-cache table2 --hit-ratio 0.45
    summary-cache table3
    summary-cache fig4
    summary-cache representations --workload upisa   # Figs. 5-8
    summary-cache simulate --workloads nlanr upisa --jobs 4
    summary-cache table4                             # client-bound replay
    summary-cache table5                             # round-robin replay
    summary-cache scalability

and any workload preset can be packed into the one trace file, a
binary ``.sctr`` replayed in bounded memory, with the real 100-proxy
Section V-F cluster run in the discrete-event simulator::

    summary-cache trace pack --workload dec --requests 10000000 \\
        --out dec.sctr
    summary-cache trace info dec.sctr
    summary-cache trace verify dec.sctr --workload dec --proxies 16
    summary-cache dissemination --proxies 100 --policies unicast hierarchy

and a live proxy cluster can be served on localhost with any summary
representation and update policy::

    summary-cache serve --proxies 3 --summary-repr exact \\
        --update-policy threshold:0.05 --duration 60

and the proxy data plane can be load-tested with concurrent
keep-alive clients replaying the Wisconsin workload, under any
cooperation policy (summary / carp owner-routing / single-copy)::

    summary-cache loadgen --proxies 2 --clients 16 --requests 200
    summary-cache loadgen --proxies 4 --mode no-icp --cooperation carp \\
        --shared-fraction 0.55 --shared-docs 192 --cache-mb 0.5

and a cluster's observability (live or freshly booted) can be fused
into one snapshot and traces reassembled across proxies::

    summary-cache obs cluster --json snapshot.json
    summary-cache obs trace 1f2e3d4c --targets 127.0.0.1:8081 127.0.0.1:8082

Performance is measured by one ruler, ``python3 bench/run.py`` (see
``bench/README.md``); the records from before it are frozen tables in
``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Any, Callable, Coroutine, Dict, List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.obs.logconfig import configure_logging
from repro.placement import CooperationPolicy
from repro.summaries import (
    SUMMARY_REPR_KINDS,
    parse_update_policy,
    summary_config_for_repr,
)
from repro.traces.workloads import WORKLOAD_PRESETS

#: What every subcommand binds with ``set_defaults(handler=...)`` where
#: its parser is built: parsed arguments in, process exit code out.
Handler = Callable[[argparse.Namespace], int]


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        default="upisa",
        choices=sorted(WORKLOAD_PRESETS),
        help="synthetic workload preset (default: upisa)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale factor (default: 1.0)",
    )


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "fan independent simulation cells across N worker processes "
            "(default: 1, serial; results are identical either way)"
        ),
    )


def _add_summary_args(parser: argparse.ArgumentParser) -> None:
    """Flags selecting the summary representation and update policy."""
    parser.add_argument(
        "--summary-repr",
        default=None,
        choices=sorted(SUMMARY_REPR_KINDS),
        help=(
            "summary representation: bloom, exact (MD5 directory), or "
            "server-name (default: bloom for serve, full sweep for sims)"
        ),
    )
    parser.add_argument(
        "--update-policy",
        default=None,
        metavar="SPEC",
        help=(
            "update policy spec: threshold:0.01, interval:300, or "
            "packet-fill[:records] (default: threshold)"
        ),
    )


def _add_cooperation_args(parser: argparse.ArgumentParser) -> None:
    """Flags selecting the live cluster's cooperation policy."""
    parser.add_argument(
        "--cooperation",
        default="summary",
        choices=CooperationPolicy.choices(),
        help=(
            "cache cooperation policy: summary = discover remote hits "
            "via summaries and cache them locally too; carp = hash-"
            "route every miss to the object's owner proxy (one copy "
            "cluster-wide); single-copy = discover remote hits but "
            "never duplicate them (default: summary)"
        ),
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        metavar="R",
        help=(
            "copies per object under owner routing -- the owner plus "
            "R-1 fallback replicas on the hash ring (default: 1)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for shell-completion tools).

    Handlers import what they run, so building the parser loads neither
    the experiment stack, nor numpy, nor ``repro.lint``.
    """
    parser = argparse.ArgumentParser(
        prog="summary-cache",
        description=(
            "Reproduction of 'Summary Cache: A Scalable Wide-Area Web "
            "Cache Sharing Protocol' (Fan, Cao, Almeida, Broder)."
        ),
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="structured logging: -v for INFO, -vv for DEBUG",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="trace statistics (Table I)")
    p.set_defaults(handler=_table1)
    p.add_argument("--scale", type=float, default=1.0)

    p = sub.add_parser("fig1", help="sharing-scheme hit ratios (Fig. 1)")
    p.set_defaults(handler=_fig1)
    _add_workload_args(p)

    p = sub.add_parser("table2", help="ICP overhead benchmark (Table II)")
    p.set_defaults(handler=_table2)
    p.add_argument("--hit-ratio", type=float, default=0.25)
    p.add_argument("--clients-per-proxy", type=int, default=30)
    p.add_argument("--requests-per-client", type=int, default=200)

    p = sub.add_parser("fig2", help="update-delay sweep (Fig. 2)")
    p.set_defaults(handler=_fig2)
    _add_workload_args(p)

    p = sub.add_parser("table3", help="summary memory (Table III)")
    p.set_defaults(handler=_table3)
    p.add_argument("--scale", type=float, default=1.0)
    _add_jobs_arg(p)
    p = sub.add_parser("fig4", help="false-positive curves (Fig. 4)")
    p.set_defaults(handler=_fig4)

    p = sub.add_parser(
        "representations", help="summary representation sweep (Figs. 5-8)"
    )
    p.set_defaults(handler=_representations)
    _add_workload_args(p)
    _add_summary_args(p)
    p.add_argument("--threshold", type=float, default=0.01)
    _add_jobs_arg(p)

    p = sub.add_parser(
        "simulate",
        help=(
            "run a Fig. 5-style grid of simulation cells, optionally on "
            "worker processes (--jobs)"
        ),
    )
    p.set_defaults(handler=_simulate)
    p.add_argument(
        "--workloads",
        nargs="+",
        default=["nlanr"],
        choices=sorted(WORKLOAD_PRESETS),
        help="workload presets to sweep (default: nlanr)",
    )
    p.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default: 1.0)",
    )
    p.add_argument(
        "--load-factors",
        nargs="+",
        type=int,
        default=[8, 16, 32],
        metavar="LF",
        help="Bloom load factors to sweep (default: 8 16 32)",
    )
    p.add_argument(
        "--thresholds",
        nargs="+",
        type=float,
        default=[0.01],
        metavar="T",
        help="update-delay thresholds to sweep (default: 0.01)",
    )
    p.add_argument(
        "--no-icp", action="store_true",
        help="skip the per-workload ICP baseline cell",
    )
    _add_jobs_arg(p)

    p = sub.add_parser("table4", help="client-bound replay (Table IV)")
    p.set_defaults(handler=_table45)
    _add_workload_args(p)
    p = sub.add_parser("table5", help="round-robin replay (Table V)")
    p.set_defaults(handler=_table45)
    _add_workload_args(p)

    p = sub.add_parser(
        "scalability", help="100-proxy extrapolation (Section V-F)"
    )
    p.set_defaults(handler=_scalability)

    p = sub.add_parser(
        "hierarchy", help="parent/child hierarchy extension (Section VIII)"
    )
    p.set_defaults(handler=_hierarchy)
    _add_workload_args(p)

    p = sub.add_parser(
        "alternatives",
        help="summary cache vs ICP/CARP/directory-server comparison",
    )
    p.set_defaults(handler=_alternatives)
    _add_workload_args(p)

    p = sub.add_parser(
        "metrics",
        help="replay one workload through summary sharing and ICP and "
        "dump their metrics",
    )
    p.set_defaults(handler=_metrics)
    _add_workload_args(p)
    _add_summary_args(p)
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="exposition format (default: prom)",
    )

    p = sub.add_parser(
        "serve",
        help="run a live proxy cluster on localhost until stopped",
    )
    p.set_defaults(handler=_run_async(_serve))
    _add_summary_args(p)
    p.add_argument(
        "--proxies", type=int, default=3, help="cluster size (default: 3)"
    )
    p.add_argument(
        "--mode",
        default="sc-icp",
        choices=("no-icp", "icp", "sc-icp"),
        help="cooperation mode (default: sc-icp)",
    )
    _add_cooperation_args(p)
    p.add_argument(
        "--cache-mb",
        type=float,
        default=16.0,
        help="per-proxy cache size in MiB (default: 16)",
    )
    p.add_argument(
        "--origin-delay",
        type=float,
        default=0.0,
        help="simulated origin latency in seconds (default: 0)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="seconds to serve before exiting (default: until Ctrl-C)",
    )
    p.add_argument(
        "--trace-capacity",
        type=int,
        default=2048,
        metavar="N",
        help="spans retained per proxy trace ring (default: 2048)",
    )
    p.add_argument(
        "--no-trace",
        action="store_true",
        help="disable request-scoped tracing (null span ring)",
    )

    p = sub.add_parser(
        "obs",
        help=(
            "cluster-wide observability: fused /metrics + /trace "
            "snapshots and cross-proxy traces"
        ),
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    pc = obs_sub.add_parser(
        "cluster",
        help=(
            "scrape every proxy's /metrics + /trace and print the fused "
            "snapshot with false-hit attribution"
        ),
    )
    pc.set_defaults(handler=_run_async(_obs_cluster))
    pc.add_argument(
        "--targets",
        nargs="+",
        default=None,
        metavar="HOST:PORT",
        help=(
            "proxy HTTP endpoints to scrape; omit to boot an in-process "
            "cluster, drive load through it, and scrape that"
        ),
    )
    pc.add_argument(
        "--boot",
        type=int,
        default=3,
        metavar="N",
        help="cluster size when booting in-process (default: 3)",
    )
    pc.add_argument(
        "--clients",
        type=int,
        default=8,
        help="loadgen clients for the booted cluster (default: 8)",
    )
    pc.add_argument(
        "--requests",
        type=int,
        default=100,
        help="requests per client for the booted cluster (default: 100)",
    )
    pc.add_argument("--hit-ratio", type=float, default=0.25)
    pc.add_argument("--seed", type=int, default=1)
    pc.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the fused snapshot as JSON",
    )

    pt = obs_sub.add_parser(
        "trace",
        help="print one reassembled cross-proxy trace as a span tree",
    )
    pt.set_defaults(handler=_run_async(_obs_trace))
    pt.add_argument("trace_id", help="8-hex-digit trace id")
    pt.add_argument(
        "--targets",
        nargs="+",
        required=True,
        metavar="HOST:PORT",
        help="proxy HTTP endpoints whose rings to search",
    )

    p = sub.add_parser(
        "loadgen",
        help=(
            "drive a live proxy cluster with concurrent Wisconsin-"
            "workload clients and report req/s + latency percentiles"
        ),
    )
    p.set_defaults(handler=_run_async(_loadgen))
    p.add_argument(
        "--proxies", type=int, default=2, help="cluster size (default: 2)"
    )
    p.add_argument(
        "--mode",
        default="sc-icp",
        choices=("no-icp", "icp", "sc-icp"),
        help="cooperation mode (default: sc-icp)",
    )
    _add_cooperation_args(p)
    p.add_argument(
        "--clients",
        type=int,
        default=16,
        help="concurrent keep-alive clients (default: 16)",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=200,
        help="requests per client (default: 200)",
    )
    p.add_argument(
        "--hit-ratio",
        type=float,
        default=0.25,
        help="inherent hit ratio of each client stream (default: 0.25)",
    )
    p.add_argument(
        "--mean-size",
        type=int,
        default=8 * 1024,
        help="mean Pareto body size in bytes (default: 8192)",
    )
    p.add_argument(
        "--cache-mb",
        type=float,
        default=16.0,
        help="per-proxy cache size in MiB (default: 16)",
    )
    p.add_argument(
        "--origin-delay",
        type=float,
        default=0.0,
        help="simulated origin latency in seconds (default: 0)",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--shared-fraction",
        type=float,
        default=0.0,
        help=(
            "fraction of requests drawn from a cross-client shared "
            "document pool (default: 0, classic disjoint streams)"
        ),
    )
    p.add_argument(
        "--shared-docs",
        type=int,
        default=64,
        help="distinct documents in the shared pool (default: 64)",
    )

    p = sub.add_parser(
        "trace",
        help=(
            "packed binary traces (.sctr): pack once, inspect, verify "
            "bit-exactness"
        ),
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    tp = trace_sub.add_parser(
        "pack",
        help="stream a workload preset into a packed .sctr file",
    )
    tp.set_defaults(handler=_trace_pack)
    _add_workload_args(tp)
    tp.add_argument("--seed", type=int, default=None)
    tp.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help=(
            "override the preset's request count only (clients and "
            "documents untouched) -- the long-trace knob"
        ),
    )
    tp.add_argument("--out", required=True, help="output .sctr path")

    tp = trace_sub.add_parser(
        "info", help="print a packed trace's header and statistics"
    )
    tp.set_defaults(handler=_trace_info)
    tp.add_argument("path", help=".sctr file to inspect")

    tp = trace_sub.add_parser(
        "verify",
        help=(
            "assert a packed trace is bit-exact with its regenerated "
            "workload, record by record"
        ),
    )
    tp.set_defaults(handler=_trace_verify)
    tp.add_argument("path", help=".sctr file to verify")
    _add_workload_args(tp)
    tp.add_argument("--seed", type=int, default=None)
    tp.add_argument("--requests", type=int, default=None, metavar="N")
    tp.add_argument(
        "--proxies",
        type=int,
        default=None,
        metavar="N",
        help=(
            "additionally replay both sources through the N-proxy "
            "summary-sharing simulator and compare every counter"
        ),
    )

    p = sub.add_parser(
        "dissemination",
        help=(
            "run the real Section V-F cluster in the DES: N proxies, "
            "summary dissemination policy as the axis, measured vs "
            "extrapolated overheads"
        ),
    )
    p.set_defaults(handler=_dissemination)
    _add_workload_args(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="override the preset's request count",
    )
    p.add_argument(
        "--proxies",
        type=int,
        default=100,
        help="cluster size (default: 100, the paper's Section V-F)",
    )
    p.add_argument(
        "--policies",
        nargs="+",
        default=["unicast", "hierarchy"],
        choices=("unicast", "hierarchy"),
        help="dissemination policies to run (default: both)",
    )
    p.add_argument(
        "--fanout",
        type=int,
        default=4,
        help="relay fan-out for the hierarchy policy (default: 4)",
    )
    p.add_argument(
        "--cache-mb",
        type=float,
        default=8.0,
        help="per-proxy cache size in MiB (default: 8)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.01,
        help="summary update threshold (default: 0.01)",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "replay this packed .sctr instead of packing the workload "
            "into a temporary file"
        ),
    )

    p = sub.add_parser(
        "sanitize-run",
        help=(
            "boot a live cluster with the interleaving sanitizer armed, "
            "drive concurrent load, and report any races detected"
        ),
    )
    p.set_defaults(handler=_run_async(_sanitize_run))
    p.add_argument(
        "--proxies", type=int, default=3, help="cluster size (default: 3)"
    )
    p.add_argument(
        "--mode",
        default="sc-icp",
        choices=("no-icp", "icp", "sc-icp"),
        help="cooperation mode (default: sc-icp)",
    )
    _add_cooperation_args(p)
    p.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent keep-alive clients (default: 8)",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=100,
        help="requests per client (default: 100)",
    )
    p.add_argument(
        "--shared-fraction",
        type=float,
        default=0.5,
        help=(
            "fraction of requests drawn from a cross-client shared "
            "pool -- high sharing maximises interleaving on the same "
            "objects (default: 0.5)"
        ),
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--rate",
        type=float,
        default=0.5,
        help="perturbation yield probability (default: 0.5)",
    )

    return parser


def _summary_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    """``representations()``/``metrics_snapshot()`` kwargs from CLI flags."""
    kwargs = {}
    if args.summary_repr is not None:
        kwargs["representation"] = SUMMARY_REPR_KINDS[args.summary_repr]
    if args.update_policy is not None:
        kwargs["update_policy"] = parse_update_policy(args.update_policy)
    return kwargs


def _run_async(
    command: Callable[[argparse.Namespace], Coroutine[Any, Any, int]],
) -> Handler:
    """Handler running an async subcommand; Ctrl-C is a clean exit."""

    def handler(args: argparse.Namespace) -> int:
        try:
            return asyncio.run(command(args))
        except KeyboardInterrupt:
            return 0

    return handler


def _print_table(table: Tuple[Any, Any], title: str) -> int:
    headers, rows = table
    print(format_table(headers, rows, title=title))
    return 0


def _table1(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.table1(scale=args.scale), "Table I: trace statistics"
    )


def _fig1(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.fig1(args.workload, scale=args.scale),
        f"Fig. 1: hit ratios under sharing schemes ({args.workload})",
    )


def _table2(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.table2_rows(
            experiments.table2(
                target_hit_ratio=args.hit_ratio,
                clients_per_proxy=args.clients_per_proxy,
                requests_per_client=args.requests_per_client,
            )
        ),
        f"Table II: ICP overhead (inherent hit ratio {args.hit_ratio:g})",
    )


def _fig2(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.fig2(args.workload, scale=args.scale),
        f"Fig. 2: update delay impact ({args.workload})",
    )


def _table3(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.table3(scale=args.scale, jobs=args.jobs),
        "Table III: summary memory",
    )


def _fig4(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.fig4(), "Fig. 4: false positive probability"
    )


def _representations(args: argparse.Namespace) -> int:
    from repro import experiments

    results = experiments.representations(
        args.workload,
        scale=args.scale,
        threshold=args.threshold,
        jobs=args.jobs,
        **_summary_overrides(args),
    )
    return _print_table(
        experiments.representation_rows(results),
        f"Figs. 5-8: summary representations ({args.workload}, "
        f"threshold {args.threshold:g})",
    )


def _simulate(args: argparse.Namespace) -> int:
    from repro.simulation.parallel import fig5_grid, run_cells

    cells = fig5_grid(
        args.workloads,
        load_factors=args.load_factors,
        thresholds=args.thresholds,
        include_icp=not args.no_icp,
        scale=args.scale,
    )
    results = run_cells(cells, jobs=args.jobs)
    headers = (
        "cell", "total-HR", "false-hit", "msgs/req", "bytes/req",
    )
    rows = [
        (
            cell.label(),
            f"{r.total_hit_ratio:.3f}",
            f"{r.false_hit_ratio:.4f}",
            f"{r.messages_per_request:.3f}",
            f"{r.message_bytes_per_request:.0f}",
        )
        for cell, r in zip(cells, results)
    ]
    return _print_table(
        (headers, rows),
        f"Simulation grid ({len(cells)} cells, jobs={args.jobs})",
    )


def _table45(args: argparse.Namespace) -> int:
    from repro import experiments

    if args.command == "table4":
        assignment, label = "client-bound", "IV"
    else:
        assignment, label = "round-robin", "V"
    return _print_table(
        experiments.table45_rows(
            experiments.table45(
                assignment=assignment, workload=args.workload, scale=args.scale
            )
        ),
        f"Table {label}: trace replay ({assignment})",
    )


def _scalability(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.scalability(), "Section V-F: scalability extrapolation"
    )


def _hierarchy(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.hierarchy_rows(
            experiments.hierarchy(args.workload, scale=args.scale)
        ),
        f"Section VIII: hierarchy extension ({args.workload})",
    )


def _alternatives(args: argparse.Namespace) -> int:
    from repro import experiments

    return _print_table(
        experiments.alternative_rows(
            experiments.alternatives(args.workload, scale=args.scale)
        ),
        f"Related-work comparison ({args.workload})",
    )


def _metrics(args: argparse.Namespace) -> int:
    from repro import experiments
    from repro.obs.export import render_json, render_prometheus

    registry = experiments.metrics_snapshot(
        args.workload,
        scale=args.scale,
        threshold=args.threshold,
        **_summary_overrides(args),
    )
    if args.format == "json":
        print(render_json(registry, workload=args.workload))
    else:
        print(render_prometheus(registry), end="")
    return 0


async def _serve(args: argparse.Namespace) -> int:
    """Run a live cluster, print its endpoints, wait for the deadline."""
    from repro.proxy.cluster import ProxyCluster
    from repro.proxy.config import ProxyConfig, ProxyMode

    policy: Dict[str, Any] = {}
    if args.update_policy:
        policy["update_policy"] = parse_update_policy(args.update_policy)
    config = ProxyConfig(
        summary=summary_config_for_repr(args.summary_repr or "bloom"),
        trace_capacity=args.trace_capacity,
        trace_enabled=not args.no_trace,
        cooperation=args.cooperation,
        replication=args.replication,
        **policy,
    )
    async with ProxyCluster(
        num_proxies=args.proxies,
        mode=ProxyMode(args.mode),
        cache_capacity=int(args.cache_mb * 1024 * 1024),
        origin_delay=args.origin_delay,
        base_config=config,
    ) as cluster:
        print(
            f"origin http://{cluster.origin.address[0]}:"
            f"{cluster.origin.address[1]}"
        )
        for proxy in cluster.proxies:
            print(
                f"{proxy.config.name} mode={proxy.config.mode.value} "
                f"cooperation={proxy.config.cooperation.value} "
                f"summary={proxy.config.summary.kind} "
                f"http=http://{proxy.config.host}:{proxy.http_port} "
                f"icp=udp://{proxy.config.host}:{proxy.icp_port} "
                f"(metrics at /metrics, spans at /trace)"
            )
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                print("serving until Ctrl-C ...", flush=True)
                while True:
                    await asyncio.sleep(3600)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
    return 0


def _parse_targets(specs: List[str]) -> List[tuple]:
    """``HOST:PORT`` strings to ``(host, port)`` scrape targets."""
    from repro.errors import ConfigurationError

    targets = []
    for spec in specs:
        host, sep, port = spec.rpartition(":")
        if not sep or not port.isdigit():
            raise ConfigurationError(
                f"scrape target {spec!r} is not HOST:PORT"
            )
        targets.append((host or "127.0.0.1", int(port)))
    return targets


async def _obs_cluster(args: argparse.Namespace) -> int:
    """Scrape a cluster (live or freshly booted) and print the fusion.

    The booted path drives two workloads: concurrent Wisconsin loadgen
    (per-client working sets, exercising the keep-alive data plane) and
    a shared-document synthetic replay (cross-client sharing, so the
    SC-ICP paths -- DIRUPDATEs, query rounds, remote hits, false hits
    -- actually appear in the fused snapshot).
    """
    import json as json_module

    from repro.benchmarkkit.loadgen import LoadGenConfig, run_loadgen
    from repro.obs.cluster import render_cluster, scrape_cluster
    from repro.proxy.cluster import ProxyCluster
    from repro.proxy.config import ProxyConfig, ProxyMode
    from repro.summaries import SummaryConfig
    from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

    if args.targets:
        snapshot = await scrape_cluster(_parse_targets(args.targets))
    else:
        config = LoadGenConfig(
            clients=args.clients,
            requests_per_client=args.requests,
            target_hit_ratio=args.hit_ratio,
            seed=args.seed,
        )
        shared = generate_trace(
            SyntheticTraceConfig(
                name="obs-smoke",
                num_requests=args.clients * args.requests,
                num_clients=args.clients,
                num_documents=max(50, args.requests),
                mean_size=1024,
                max_size=32 * 1024,
                mod_probability=0.0,
                seed=args.seed,
            )
        )
        async with ProxyCluster(
            num_proxies=args.boot,
            mode=ProxyMode.SC_ICP,
            cache_capacity=4 * 1024 * 1024,
            base_config=ProxyConfig(
                summary=SummaryConfig(kind="bloom", load_factor=8),
                expected_doc_size=1024,
            ),
        ) as cluster:
            await run_loadgen(
                cluster.targets(),
                config,
                label="obs-smoke",
                proxies=cluster.proxies,
            )
            await cluster.replay(shared, assignment="round-robin")
            snapshot = await cluster.snapshot()
    print(render_cluster(snapshot))
    if args.json:
        import os

        parent = os.path.dirname(args.json)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as fh:
            json_module.dump(snapshot.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


async def _obs_trace(args: argparse.Namespace) -> int:
    """Reassemble and print one trace from the targets' span rings."""
    from repro.obs.cluster import render_trace, scrape_cluster

    snapshot = await scrape_cluster(_parse_targets(args.targets))
    spans = snapshot.trace(args.trace_id)
    print(render_trace(spans))
    return 0 if spans else 1


async def _loadgen(args: argparse.Namespace) -> int:
    """Measure req/s + latency of a live cluster under concurrent load.

    One run on a fresh in-process cluster: persistent client
    connections, pooled origin/peer fetches.  Exits 1 when any client
    request failed.
    """
    from repro.benchmarkkit.loadgen import (
        LoadGenConfig,
        render_comparison,
        run_loadgen,
    )
    from repro.proxy.cluster import ProxyCluster
    from repro.proxy.config import ProxyConfig, ProxyMode

    config = LoadGenConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        target_hit_ratio=args.hit_ratio,
        mean_size=args.mean_size,
        seed=args.seed,
        shared_fraction=args.shared_fraction,
        shared_docs=args.shared_docs,
    )
    async with ProxyCluster(
        num_proxies=args.proxies,
        mode=ProxyMode(args.mode),
        cache_capacity=int(args.cache_mb * 1024 * 1024),
        origin_delay=args.origin_delay,
        base_config=ProxyConfig(
            cooperation=args.cooperation, replication=args.replication
        ),
    ) as cluster:
        result = await run_loadgen(
            cluster.targets(),
            config,
            label="keepalive_pooled",
            proxies=cluster.proxies,
            origin=cluster.origin,
        )
    print(render_comparison([result]), flush=True)
    return 1 if result.errors else 0


async def _sanitize_run(args: argparse.Namespace) -> int:
    """Boot a sanitized cluster, drive load, report interleavings.

    Exit codes: 0 no violations, 1 violations detected, 2 setup error.
    """
    import os

    from repro.benchmarkkit.loadgen import LoadGenConfig, run_loadgen
    from repro.proxy.cluster import ProxyCluster
    from repro.proxy.config import ProxyConfig, ProxyMode
    from repro.sanitizer import ENV_FLAG, ENV_SEED, default_sanitizer
    from repro.sanitizer.core import ENV_RATE

    # The proxies pick the sanitizer up from the environment at
    # construction (default_sanitizer), so arm it before the cluster.
    os.environ[ENV_FLAG] = "1"
    os.environ[ENV_SEED] = str(args.seed)
    os.environ[ENV_RATE] = str(args.rate)
    sanitizer = default_sanitizer()
    if sanitizer is None:  # pragma: no cover - env set two lines up
        print("sanitize-run: error: could not arm the sanitizer")
        return 2

    config = LoadGenConfig(
        clients=args.clients,
        requests_per_client=args.requests,
        target_hit_ratio=0.25,
        seed=args.seed,
        shared_fraction=args.shared_fraction,
    )
    async with ProxyCluster(
        num_proxies=args.proxies,
        mode=ProxyMode(args.mode),
        base_config=ProxyConfig(
            cooperation=args.cooperation, replication=args.replication
        ),
    ) as cluster:
        targets = [
            (proxy.config.host, proxy.http_port)
            for proxy in cluster.proxies
        ]
        result = await run_loadgen(
            targets,
            config,
            label="sanitize",
            proxies=cluster.proxies,
            origin=cluster.origin,
        )
    violations = sanitizer.drain()
    total = args.clients * args.requests
    print(
        f"sanitize-run: {total} requests over {args.proxies} proxies "
        f"({result.requests} done, {result.errors} error(s)), "
        f"{sanitizer.yields} perturbation yield(s), "
        f"{len(violations)} violation(s)"
    )
    for violation in violations:
        print(f"  {violation.render()}")
    return 1 if violations else 0


def _trace_pack(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.traces.workloads import pack_workload

    start = perf_counter()
    records, groups = pack_workload(
        args.workload,
        args.out,
        scale=args.scale,
        seed=args.seed,
        num_requests=args.requests,
    )
    elapsed = perf_counter() - start
    rate = records / elapsed if elapsed > 0 else 0.0
    print(
        f"packed {records:,} requests ({groups} proxy groups) to "
        f"{args.out} in {elapsed:.2f}s ({rate:,.0f} records/s, "
        "numpy import and generator set-up included)"
    )
    return 0


def _trace_info(args: argparse.Namespace) -> int:
    import os

    from repro.traces.binary import (
        TRACE_FORMAT_VERSION,
        BinaryTraceReader,
    )

    with BinaryTraceReader(args.path) as reader:
        rows = [
            ("name", reader.name),
            ("format version", str(TRACE_FORMAT_VERSION)),
            ("records", f"{len(reader):,}"),
            ("distinct URLs", f"{len(reader.urls()):,}"),
            ("distinct clients", f"{len(reader.clients()):,}"),
            ("duration (s)", f"{reader.duration:.1f}"),
            ("file size (bytes)", f"{os.path.getsize(args.path):,}"),
            (
                "bytes/record",
                f"{os.path.getsize(args.path) / max(1, len(reader)):.1f}",
            ),
        ]
    print(format_table(("field", "value"), rows, title=args.path))
    return 0


def _trace_verify(args: argparse.Namespace) -> int:
    """Record-by-record comparison against the regenerated workload.

    With ``--proxies N``, both sources are also replayed through the
    N-proxy summary-sharing simulator and must agree on every counter.
    """
    from repro.traces.binary import BinaryTraceReader
    from repro.traces.synthetic import iter_requests
    from repro.traces.workloads import workload_config

    config, _ = workload_config(
        args.workload,
        scale=args.scale,
        seed=args.seed,
        num_requests=args.requests,
    )
    checked = 0
    with BinaryTraceReader(args.path) as reader:
        stream = iter(iter_requests(config))
        for packed in reader:
            expected = next(stream, None)
            if packed != expected:
                print(
                    f"MISMATCH at record {checked}: packed {packed!r} "
                    f"!= generated {expected!r}"
                )
                return 1
            checked += 1
        leftover = next(stream, None)
        if leftover is not None:
            print(
                f"MISMATCH: packed trace ends at {checked} records but "
                f"the generator continues ({leftover!r})"
            )
            return 1
    print(f"OK: {checked:,} records bit-exact with {args.workload} "
          f"(scale {args.scale:g})")
    if args.proxies is None:
        return 0

    from repro.sharing.summary_sharing import (
        SummarySharingConfig,
        simulate_summary_sharing,
    )
    from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
    from repro.traces.synthetic import generate_trace

    sharing = SummarySharingConfig(
        summary=SummaryConfig(kind="bloom", load_factor=8),
        update_policy=ThresholdUpdatePolicy(0.01),
        expected_doc_size=8 * 1024,
    )
    capacity = 4 * 1024 * 1024
    in_memory = simulate_summary_sharing(
        generate_trace(config), args.proxies, capacity, sharing
    )
    with BinaryTraceReader(args.path) as reader:
        streamed = simulate_summary_sharing(
            reader, args.proxies, capacity, sharing
        )
    if streamed != in_memory:
        print(
            "MISMATCH: streamed replay diverged from in-memory replay "
            f"(hit ratio {streamed.total_hit_ratio:g} vs "
            f"{in_memory.total_hit_ratio:g})"
        )
        return 1
    print(
        f"OK: {args.proxies}-proxy summary-sharing replay "
        f"bit-exact (hit ratio {streamed.total_hit_ratio:g})"
    )
    return 0


def _dissemination(args: argparse.Namespace) -> int:
    """The measured Section V-F run, one cell per dissemination policy."""
    from repro import experiments

    results = experiments.dissemination(
        args.workload,
        scale=args.scale,
        seed=args.seed,
        num_requests=args.requests,
        num_proxies=args.proxies,
        policies=args.policies,
        fanout=args.fanout,
        cache_capacity=int(args.cache_mb * 1024 * 1024),
        threshold=args.threshold,
        trace_path=args.trace,
    )
    measured = next(iter(results.values()))
    if args.trace is None:
        # Every cell replays each packed record exactly once.
        print(f"packed {measured.requests:,} requests for the run")
    for policy, result in results.items():
        print(
            f"{policy}: {result.requests:,} requests, "
            f"hit ratio {result.hit_ratio:.3f}, "
            f"{result.update_messages:,} update messages "
            f"(busiest sender {result.sender_max_dirupdates:,})"
        )
    _print_table(
        experiments.dissemination_rows(results),
        f"Section V-F measured: {args.proxies} proxies "
        f"({args.workload}, threshold {args.threshold:g})",
    )
    predicted = measured.predicted
    if predicted is not None:
        print(
            "extrapolation check (unadjusted Section V-F model at this "
            "geometry):"
        )
        for key, spec in (
            ("update_messages_per_request", ".4f"),
            ("protocol_messages_per_request", ".4f"),
            ("summary_memory_bytes", ","),
        ):
            print(
                f"  {key}: predicted {getattr(predicted, key):{spec}}, "
                f"measured {getattr(measured, key):{spec}}"
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    handler: Handler = args.handler
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
