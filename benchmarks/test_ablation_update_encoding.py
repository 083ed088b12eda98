"""Ablation: delta (bit-flip) updates vs whole-filter transfers.

Section VI: "the proxy can either specify which bits in the bit array
are flipped, or send the whole array, whichever is smaller"; Squid's
cache digests ship the whole array.  This ablation measures real
encoded wire bytes for both encodings across update batch sizes and
locates the crossover, next to the pick of
:func:`repro.summaries.codec.ships_whole`, the rule all three engines
apply.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.protocol.update import (
    build_digest_messages,
    build_dir_update_messages,
)
from repro.summaries.bloom import BloomSummary
from repro.summaries.codec import ships_whole

from benchmarks._shared import write_result

NUM_BITS = 131_072  # a 16 KB filter (2K documents at load factor 8)


def measure(batch_size: int):
    cbf = BloomSummary(NUM_BITS // 8)  # load factor 8
    for i in range(2000):
        cbf.add(f"http://base{i}.com/x")
    cbf.drain_delta()  # baseline shipped
    for i in range(batch_size):
        cbf.add(f"http://delta{i}.com/y")
    flips = cbf.drain_delta().flips
    delta_messages = build_dir_update_messages(
        flips, cbf.hash_family, cbf.num_bits
    )
    delta_bytes = sum(len(m.encode()) for m in delta_messages)
    digest_messages = build_digest_messages(
        cbf.counters.bits.to_bytes(), cbf.hash_family, cbf.num_bits
    )
    digest_bytes = sum(len(c.encode()) for c in digest_messages)
    return len(flips), delta_bytes, digest_bytes


def test_ablation_update_encoding(benchmark):
    batch_sizes = (10, 100, 1000, 4000, 16000)

    def sweep():
        return {n: measure(n) for n in batch_sizes}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for batch, (flips, delta_bytes, digest_bytes) in results.items():
        winner = "delta" if delta_bytes < digest_bytes else "whole-filter"
        pick = "whole-filter" if ships_whole(flips, NUM_BITS) else "delta"
        rows.append((batch, flips, delta_bytes, digest_bytes, winner, pick))

    # Small batches favour deltas; huge batches favour the digest; the
    # rule picks the measured winner at both ends.
    assert rows[0][4] == rows[0][5] == "delta"
    assert rows[-1][4] == rows[-1][5] == "whole-filter"
    # The digest's cost is constant (plus chunk headers) regardless of
    # batch size.
    digest_sizes = [row[3] for row in rows]
    assert max(digest_sizes) - min(digest_sizes) < 1024

    write_result(
        "ablation_update_encoding",
        format_table(
            (
                "new-docs",
                "bit-flips",
                "delta-bytes",
                "whole-filter-bytes",
                "smaller",
                "rule picks",
            ),
            rows,
            title=(
                "Ablation: DIRUPDATE deltas vs cache-digest transfers "
                f"({NUM_BITS} -bit filter)"
            ),
        ),
    )
