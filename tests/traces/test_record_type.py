"""Every producer of trace records yields real :class:`Request` tuples.

The generator and the ``.sctr`` reader build records with
``tuple.__new__(Request, fields)``, which skips ``Request._make``'s
length check.  These tests pin what that check used to promise: every
record is exactly a ``Request`` of five fields, equal to the plain
tuple of its fields, with its named fields readable.
"""

from __future__ import annotations

import pytest

from repro.benchmarkkit.wisconsin import WisconsinConfig, generate_client_streams
from repro.traces.binary import BinaryTraceReader, TraceWindow, pack_trace
from repro.traces.model import Request
from repro.traces.readers import read_squid_log, write_squid_log
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_trace,
    iter_requests,
)

CONFIG = SyntheticTraceConfig(
    name="record-type",
    num_requests=400,
    num_clients=8,
    num_documents=150,
    mod_probability=0.05,
    seed=3,
)


def assert_records(records) -> int:
    """Check each record's type, shape and fields; return how many."""
    count = 0
    for record in records:
        assert type(record) is Request
        assert len(record) == 5
        plain = (
            record.timestamp,
            record.client_id,
            record.url,
            record.size,
            record.version,
        )
        assert record == plain and tuple(record) == plain
        assert isinstance(record.url, str) and record.url.startswith("http")
        assert isinstance(record.size, int) and record.size >= 0
        count += 1
    return count


@pytest.fixture(scope="module")
def packed(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("records") / "t.sctr")
    pack_trace(iter_requests(CONFIG), path, name=CONFIG.name)
    return path


def test_iter_requests_yields_requests():
    assert assert_records(iter_requests(CONFIG)) == CONFIG.num_requests


class TestReader:
    def test_iteration(self, packed):
        with BinaryTraceReader(packed) as reader:
            assert assert_records(reader) == CONFIG.num_requests
            assert list(reader) == list(iter_requests(CONFIG))

    def test_integer_index(self, packed):
        with BinaryTraceReader(packed) as reader:
            picks = [0, 1, len(reader) // 2, len(reader) - 1, -1]
            assert assert_records(reader[i] for i in picks) == len(picks)
            assert reader[-1] == reader[len(reader) - 1]

    def test_window(self, packed):
        with BinaryTraceReader(packed) as reader:
            window = reader[10:60]
            assert isinstance(window, TraceWindow)
            assert assert_records(window) == 50
            assert assert_records([window[0], window[-1]]) == 2
            assert list(window) == list(reader)[10:60]


def test_squid_log_reader_yields_requests(tmp_path):
    path = tmp_path / "access.log"
    write_squid_log(generate_trace(CONFIG), path)
    assert assert_records(read_squid_log(path)) == CONFIG.num_requests


def test_client_streams_yield_requests():
    config = WisconsinConfig(num_clients=3, requests_per_client=20, seed=2)
    streams = generate_client_streams(config)
    assert len(streams) == 3
    assert sum(assert_records(stream) for stream in streams) == 60
