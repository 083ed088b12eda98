#!/usr/bin/env python3
"""Scenario: characterize a workload before configuring cache sharing.

Before deploying summary cache, an operator wants to know whether the
workload can benefit at all: how skewed is document popularity, how
heavy is the size tail, how much do the user groups' working sets
overlap, and how far apart are re-references.  This script runs the
trace-characterization toolkit over a workload (a preset, or a packed
``.sctr`` trace file written by ``summary-cache trace pack``) and turns
the measurements into configuration advice.

Run:  python examples/workload_analysis.py [--workload dec] [--trace file.sctr]
"""

import argparse

from repro.analysis.tables import format_table
from repro.traces import (
    BinaryTraceReader,
    compute_stats,
    fit_zipf_alpha,
    group_overlap_matrix,
    interreference_percentiles,
    make_workload,
    sharing_potential,
    size_statistics,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="dec")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--trace", help="packed .sctr trace file (overrides --workload)"
    )
    parser.add_argument("--groups", type=int, default=None)
    args = parser.parse_args()

    if args.trace:
        with BinaryTraceReader(args.trace) as trace:
            characterize(trace, args.groups or 4)
    else:
        trace, groups = make_workload(args.workload, scale=args.scale)
        characterize(trace, args.groups or groups)


def characterize(trace, groups: int) -> None:
    """Print *trace*'s measurements and the advice they lead to."""
    stats = compute_stats(trace)
    print(
        f"trace {trace.name!r}: {stats.num_requests} requests, "
        f"{stats.num_clients} clients, {groups} proxy groups\n"
    )

    # Popularity and sizes.
    alpha = fit_zipf_alpha(trace)
    sizes = size_statistics(trace)
    print(
        format_table(
            ("property", "value", "reading"),
            [
                (
                    "zipf alpha",
                    f"{alpha:.2f}",
                    "web traces: 0.6-0.9; higher = more cacheable",
                ),
                (
                    "mean / median size",
                    f"{sizes.mean:.0f} / {sizes.median:.0f} B",
                    "mean >> median = heavy tail",
                ),
                (
                    "p99 / max size",
                    f"{sizes.p99 / 1024:.0f} KB / {sizes.max / 1024:.0f} KB",
                    "documents above 250 KB are never cached",
                ),
                (
                    "size tail index",
                    f"{sizes.tail_index:.2f}",
                    "Pareto alpha; the paper's benchmark uses 1.1",
                ),
                (
                    "max hit ratio",
                    f"{stats.max_hit_ratio:.3f}",
                    "infinite-cache ceiling",
                ),
            ],
            title="Workload character",
        )
    )

    # Reuse distances: how big must a cache be?
    distances = interreference_percentiles(trace, percentiles=(50, 90, 99))
    print()
    print(
        format_table(
            ("percentile", "inter-reference distance (requests)"),
            [(f"p{int(p)}", f"{d:,.0f}") for p, d in distances.items()],
            title="Re-reference distances",
        )
    )

    # Sharing: is cooperation worth the protocol?
    potential = sharing_potential(trace, groups)
    matrix = group_overlap_matrix(trace, groups)
    off_diagonal = [
        matrix[i][j]
        for i in range(groups)
        for j in range(groups)
        if i != j
    ]
    mean_overlap = sum(off_diagonal) / len(off_diagonal)
    print()
    print(
        format_table(
            ("property", "value", "reading"),
            [
                (
                    "sharing potential",
                    f"{potential:.3f}",
                    "upper bound on the remote-hit ratio",
                ),
                (
                    "mean group overlap",
                    f"{mean_overlap:.3f}",
                    "fraction of one group's documents another also uses",
                ),
            ],
            title="Sharing prospects",
        )
    )

    print("\nAdvice:")
    if potential < 0.03:
        print(
            "  - sharing potential is tiny: cooperation will not pay for"
            " its protocol overhead here."
        )
    else:
        print(
            f"  - up to {potential:.0%} of requests could become remote"
            " hits: cache sharing is worthwhile."
        )
        print(
            "  - use Bloom summaries at load factor 8-16 and a 1%-10%"
            " update threshold (paper Section V-E)."
        )
    if sizes.mean > 0 and sizes.p99 > 250 * 1024:
        print(
            "  - the size tail crosses the 250 KB cacheability limit:"
            " the largest documents will always go to the origin."
        )


if __name__ == "__main__":
    main()
