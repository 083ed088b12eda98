#!/usr/bin/env python3
"""Quickstart: the summary cache building blocks in five minutes.

Walks through the paper's core machinery:

1. a counting Bloom filter summarizing a cache directory;
2. delta updates keeping a peer's copy in sync (``ICP_OP_DIRUPDATE``);
3. the false-positive math that sizes the filter;
4. a cache wired to its summary via callbacks.

Run:  python examples/quickstart.py
"""

from repro.cache.webcache import WebCache
from repro.core.bfmath import (
    false_positive_probability,
    optimal_integer_num_hashes,
)
from repro.core.bloom import BloomFilter
from repro.protocol import build_dir_update_messages, decode_message
from repro.summaries import BloomSummary


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A proxy summarizes its own directory with a counting filter.
    # ------------------------------------------------------------------
    print("=== 1. Counting Bloom filter (the proxy's local summary) ===")
    summary = BloomSummary(10_000)  # 8 bits per expected document
    urls = [f"http://server{i % 50}.edu/page/{i}" for i in range(2_000)]
    for url in urls:
        summary.add(url)
    print(
        f"inserted {len(urls)} URLs into a {summary.num_bits}-bit filter "
        f"with {summary.config.counter_width}-bit counters "
        f"(fill ratio {summary.fill_ratio():.4f})"
    )

    probe = urls[123]
    print(f"may_contain({probe!r}) -> {summary.may_contain(probe)}")
    summary.remove(probe)
    print(f"after remove            -> {summary.may_contain(probe)}")
    summary.add(probe)  # put it back for step 2

    # ------------------------------------------------------------------
    # 2. Peers hold plain-filter copies, patched by DIRUPDATE messages.
    # ------------------------------------------------------------------
    print("\n=== 2. Delta updates over the wire ===")
    peer_copy = BloomFilter(summary.num_bits, hash_family=summary.hash_family)
    flips = summary.drain_delta().flips
    messages = build_dir_update_messages(
        flips, summary.hash_family, summary.num_bits
    )
    print(
        f"{len(flips)} bit flips -> {len(messages)} UDP-sized "
        f"ICP_OP_DIRUPDATE messages"
    )
    for message in messages:
        datagram = message.encode()  # bytes on the wire
        peer_copy.apply_flips(decode_message(datagram).flips)
    print(
        "peer copy agrees with local filter:",
        peer_copy.bits == summary.counters.bits,
    )

    # ------------------------------------------------------------------
    # 3. The math: how big should the filter be?
    # ------------------------------------------------------------------
    print("\n=== 3. Sizing the filter (Fig. 4) ===")
    for load_factor in (8, 16, 32):
        p4 = false_positive_probability(load_factor, 4)
        k_opt = optimal_integer_num_hashes(load_factor)
        p_opt = false_positive_probability(load_factor, k_opt)
        print(
            f"load factor {load_factor:2d}: false positives "
            f"{p4:7.4%} with k=4, {p_opt:7.4%} with optimal k={k_opt}"
        )

    # ------------------------------------------------------------------
    # 4. A cache that keeps its summary in sync automatically.
    # ------------------------------------------------------------------
    print("\n=== 4. Cache + summary, wired by callbacks ===")
    live = BloomSummary(100)
    cache = WebCache(
        capacity_bytes=64 * 1024,
        on_insert=live.add,
        on_evict=live.remove,
    )
    for i in range(200):
        cache.put(f"http://campus.edu/doc{i}", 1024)
    in_cache = sum(1 for u in cache.urls() if live.may_contain(u))
    print(
        f"cache holds {len(cache)} documents "
        f"({cache.used_bytes} bytes); summary confirms "
        f"{in_cache}/{len(cache)} (no false negatives, ever)"
    )
    evicted_url = "http://campus.edu/doc0"  # long evicted by LRU
    print(
        f"evicted URL still in summary? "
        f"{live.may_contain(evicted_url)} (counters removed it)"
    )


if __name__ == "__main__":
    main()
