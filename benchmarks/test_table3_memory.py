"""Table III: storage requirement of the summary representations,
as a percentage of proxy cache size."""

from __future__ import annotations

import pytest

from repro import experiments
from repro.analysis.tables import format_table

from benchmarks._shared import representation_sweep, write_result


def test_table3_memory(benchmark):
    def build():
        return experiments.table3_rows(
            {
                workload: representation_sweep(workload)
                for workload in experiments.ALL_WORKLOADS
            }
        )

    headers, rows = benchmark.pedantic(build, rounds=1, iterations=1)

    for row in rows:
        exact, server, b8, b16, b32 = (
            float(cell.rstrip("%")) for cell in row[1:]
        )
        # Bloom summaries undercut the exact directory by a wide margin
        # and scale with the load factor (Table III's ordering).
        assert b8 < exact / 4
        assert b8 < b16 < b32
        # Load-factor proportionality: 16 is ~2x of 8, 32 ~4x of 8.
        assert b16 / b8 == pytest.approx(2.0, rel=0.2)
        assert b32 / b8 == pytest.approx(4.0, rel=0.2)
        # The load-factor-8 filter is in the same ballpark as or below
        # the server-name list (the paper's observation).
        assert b8 < server * 2.0

    write_result(
        "table3_memory",
        format_table(
            headers,
            rows,
            title="Table III: summary memory as % of proxy cache size",
        ),
    )

