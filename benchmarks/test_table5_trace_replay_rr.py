"""Table V: trace replay with round-robin request assignment (the
paper's experiment 4: global request order preserved, client binding
not; proxies are more load-balanced than in experiment 3)."""

from __future__ import annotations

from repro import experiments
from repro.analysis.tables import format_table

from benchmarks._shared import write_result
from benchmarks.test_table4_trace_replay import check_replay, run_replay


def test_table5_trace_replay_round_robin(benchmark):
    results = benchmark.pedantic(
        run_replay, args=("round-robin",), rounds=1, iterations=1
    )
    check_replay(results)
    headers, rows = experiments.table45_rows(results)
    write_result(
        "table5_trace_replay_rr",
        format_table(
            headers,
            rows,
            title=(
                "Table V: UPisa-like replay, round-robin assignment "
                "(experiment 4)"
            ),
        ),
    )
