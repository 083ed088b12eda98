"""Extension (Section VIII): summary cache in a parent/child hierarchy.

The Questnet topology: 12 child proxies behind one regional parent.
Measures how much SC-ICP sibling sharing among the children offloads
the parent, with and without the protocol.
"""

from __future__ import annotations

from repro import experiments
from repro.analysis.tables import format_table

from benchmarks._shared import SCALE, write_result


def test_extension_hierarchy(benchmark):
    results = benchmark.pedantic(
        experiments.hierarchy,
        args=("questnet",),
        kwargs={"scale": min(SCALE, 1.0)},
        rounds=1,
        iterations=1,
    )

    plain = results["hierarchy only"]
    with_siblings = results["hierarchy + SC-ICP siblings"]

    # Sibling sharing offloads the parent without hurting total hits.
    assert with_siblings.parent_requests < plain.parent_requests
    assert with_siblings.sibling_hits > 0
    assert (
        with_siblings.total_hit_ratio > plain.total_hit_ratio - 0.05
    )

    headers, rows = experiments.hierarchy_rows(results)
    write_result(
        "extension_hierarchy",
        format_table(
            headers,
            rows,
            title=(
                f"Extension: Questnet-style hierarchy, {plain.num_children} "
                "children (Section VIII)"
            ),
        ),
    )
