"""Microbenchmarks of the core data-structure operations.

Unlike the experiment benchmarks (which regenerate the paper's tables
with single-shot runs), these measure steady-state throughput of the
primitives a deployed proxy exercises on every request: filter probes,
inserts/deletes, MD5 hashing, and wire encode/decode -- plus the trace
layer every replay starts from: synthetic generation and a packed scan.
"""

from __future__ import annotations

import itertools
import random

from repro.core.bitarray import BitArray
from repro.core.bloom import BloomFilter
from repro.core.hashing import MD5HashFamily, PolynomialHashFamily
from repro.protocol.update import build_dir_update_messages
from repro.protocol.wire import IcpQuery, decode_message
from repro.summaries.bloom import BloomSummary
from repro.traces import BinaryTraceReader, pack_trace
from repro.traces.synthetic import SyntheticTraceConfig, iter_requests

URLS = [f"http://server{i % 97}.example.net/path/{i}" for i in range(5000)]

BITARRAY_BITS = 40_000

#: A fixed 20k-request trace: dec-like popularity and sizes, with
#: enough locality to exercise the recency draw.
TRACE_CONFIG = SyntheticTraceConfig(
    num_requests=20_000,
    num_clients=200,
    num_documents=10_000,
    locality_probability=0.45,
    mean_size=2 * 1024,
    seed=7,
)


def test_micro_bloom_probe(benchmark):
    filt = BloomFilter.for_capacity(5000, load_factor=8)
    for url in URLS:
        filt.add(url)
    probe_urls = itertools.cycle(URLS)

    def probe():
        return filt.may_contain(next(probe_urls))

    assert benchmark(probe) is True


def test_micro_bloom_negative_probe(benchmark):
    filt = BloomFilter.for_capacity(5000, load_factor=8)
    for url in URLS:
        filt.add(url)
    absent = itertools.cycle(
        [f"http://absent{i}.org/x" for i in range(1000)]
    )

    def probe():
        return filt.may_contain(next(absent))

    benchmark(probe)


def test_micro_counting_add_remove(benchmark):
    cbf = BloomSummary(5000)  # load factor 8
    urls = itertools.cycle(URLS)

    def add_remove():
        url = next(urls)
        cbf.add(url)
        cbf.remove(url)
        # Bound the pending-flip list: a deployed proxy drains it on
        # every update, so steady state never accumulates.
        if cbf.pending_change_count() > 1024:
            cbf.drain_delta()

    benchmark(add_remove)


def test_micro_bitarray_from_bytes(benchmark):
    # Exercises the payload-decode popcount (one big-int bit_count
    # instead of a per-byte Python loop).
    rng = random.Random(7)
    source = BitArray(BITARRAY_BITS)
    for _ in range(BITARRAY_BITS // 8):
        source.set(rng.randrange(BITARRAY_BITS))
    payload = source.to_bytes()

    rebuilt = benchmark(lambda: BitArray.from_bytes(BITARRAY_BITS, payload))
    assert rebuilt.popcount == source.popcount


def test_micro_bitarray_set_many(benchmark):
    # The batch path behind BloomFilter.add: k bits per key, popcount
    # bookkeeping settled once per batch.
    rng = random.Random(11)
    array = BitArray(BITARRAY_BITS)
    batches = itertools.cycle(
        [
            [rng.randrange(BITARRAY_BITS) for _ in range(8)]
            for _ in range(512)
        ]
    )

    def set_clear():
        batch = next(batches)
        set_count = len(array.set_many(batch, True))
        cleared = array.set_many(batch, False)
        return set_count == len(cleared)

    assert benchmark(set_clear) is True


def test_micro_md5_family(benchmark):
    family = MD5HashFamily()
    urls = itertools.cycle(URLS)
    benchmark(lambda: family.hashes(next(urls), 40_000))


def test_micro_polynomial_family(benchmark):
    family = PolynomialHashFamily()
    urls = itertools.cycle(URLS)
    benchmark(lambda: family.hashes(next(urls), 40_000))


def test_micro_query_encode_decode(benchmark):
    urls = itertools.cycle(URLS)

    def roundtrip():
        query = IcpQuery(url=next(urls), request_number=7)
        return decode_message(query.encode())

    result = benchmark(roundtrip)
    assert isinstance(result, IcpQuery)


def test_micro_dirupdate_build(benchmark):
    cbf = BloomSummary(5000)
    for url in URLS[:1000]:
        cbf.add(url)
    flips = cbf.drain_delta().flips

    def build():
        return build_dir_update_messages(
            flips, cbf.hash_family, cbf.num_bits
        )

    messages = benchmark(build)
    assert messages


def test_micro_trace_generate(benchmark):
    def generate():
        count = 0
        for _ in iter_requests(TRACE_CONFIG):
            count += 1
        return count

    assert benchmark(generate) == TRACE_CONFIG.num_requests


def test_micro_trace_scan(benchmark, tmp_path):
    path = tmp_path / "micro.sctr"
    pack_trace(iter_requests(TRACE_CONFIG), path, name="micro")

    with BinaryTraceReader(path) as reader:

        def scan():
            count = 0
            for _ in reader:
                count += 1
            return count

        assert benchmark(scan) == TRACE_CONFIG.num_requests
