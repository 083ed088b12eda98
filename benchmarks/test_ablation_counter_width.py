"""Ablation: counter width of the counting Bloom filter.

The paper argues 4-bit counters are "amply sufficient" (overflow
probability ~ m * 1.37e-15).  This ablation measures, per width, the
memory cost and the saturation events under a heavy churn workload, and
checks the analytic overflow bound.
"""

from __future__ import annotations

import random

from repro.analysis.tables import format_table
from repro.core.bfmath import counter_overflow_probability
from repro.summaries import SummaryConfig
from repro.summaries.bloom import BloomSummary

from benchmarks._shared import write_result

NUM_BITS = 32_768
CHURN_OPS = 30_000


def churn(width: int):
    """Random adds/removes at a steady ~2000 live keys."""
    rng = random.Random(width)
    cbf = BloomSummary(NUM_BITS // 8, SummaryConfig(counter_width=width))
    live = []
    for op in range(CHURN_OPS):
        if live and rng.random() < 0.45:
            cbf.remove(live.pop(rng.randrange(len(live))))
        else:
            key = f"http://churn{op}.net/obj"
            cbf.add(key)
            live.append(key)
    # A filter is *sound* if every live key still probes positive.
    false_negatives = sum(1 for k in live if not cbf.may_contain(k))
    return cbf, false_negatives


def test_ablation_counter_width(benchmark):
    def sweep():
        return {width: churn(width) for width in (2, 4, 8)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for width, (cbf, false_negatives) in results.items():
        # No width may ever produce a false negative: saturated
        # counters stick at max rather than under-count.
        assert false_negatives == 0
        rows.append(
            (
                width,
                cbf.counters.size_bytes(),
                cbf.counters.saturation_events,
                f"{counter_overflow_probability(NUM_BITS, 4096, (1 << width)):.2e}",
            )
        )

    by_width = {row[0]: row for row in rows}
    # Narrow counters saturate much more often; 4-bit rarely if ever.
    assert by_width[2][2] >= by_width[4][2]
    assert by_width[4][2] >= by_width[8][2]
    # Memory halves as width halves.
    assert by_width[4][1] == by_width[8][1] // 2

    # The paper's own bound for 4-bit counters is minuscule.
    assert counter_overflow_probability(NUM_BITS, 4096, 16) < 1e-9

    write_result(
        "ablation_counter_width",
        format_table(
            (
                "counter-bits",
                "counter-bytes",
                "saturation-events",
                "analytic-P(overflow)",
            ),
            rows,
            title=(
                "Ablation: counter width under churn "
                f"({CHURN_OPS} ops, {NUM_BITS} bits)"
            ),
        ),
    )
