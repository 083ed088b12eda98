"""Streamed replay is bit-exact with materialized replay.

The streaming trace engine changes how requests reach the simulators
(an mmap reader or a bare generator instead of an in-memory list) but
must not change a single counter of what they compute.  Every sharing
simulator is fed the same workload three ways -- materialized
:class:`~repro.traces.model.Trace`, :class:`~repro.traces.binary.
BinaryTraceReader`, and one-shot generator -- and the results compared
with dataclass equality (every hit, byte, and message count).  The
replay also reads its input lazily, one record at a time, and refuses
a zero proxy count before it reads any record.
"""

from __future__ import annotations

import uuid

import pytest

from repro.core.position_cache import get_position_cache
from repro.errors import ConfigurationError
from repro.sharing.carp import simulate_carp
from repro.sharing.directory_server import simulate_directory_server
from repro.sharing.hierarchy import simulate_hierarchy
from repro.sharing.schemes import (
    simulate_global_cache,
    simulate_no_sharing,
    simulate_simple_sharing,
    simulate_single_copy_sharing,
)
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_summary_sharing,
)
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.traces.binary import BinaryTraceReader, pack_trace
from repro.traces.model import Request

GROUPS = 4
CAPACITY = 256 * 1024


@pytest.fixture(scope="module")
def packed_path(small_trace, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("sctr") / "small.sctr")
    pack_trace(small_trace, path)
    return path


def _sources(small_trace, packed_path):
    """The three feed shapes: list-backed, mmap-backed, one-shot."""
    reader = BinaryTraceReader(packed_path)
    return {
        "trace": small_trace,
        "reader": reader,
        "generator": (r for r in small_trace.requests),
    }


@pytest.mark.parametrize(
    "simulate",
    [
        simulate_no_sharing,
        simulate_simple_sharing,
        simulate_single_copy_sharing,
        simulate_global_cache,
    ],
    ids=lambda f: f.__name__,
)
def test_schemes_identical_across_sources(
    simulate, small_trace, packed_path
):
    results = {
        label: simulate(source, GROUPS, CAPACITY)
        for label, source in _sources(small_trace, packed_path).items()
    }
    # trace_name differs by design ("stream" for the bare generator);
    # normalize it away and compare everything else.
    baseline = results["trace"]
    for label, result in results.items():
        comparable = {**result.__dict__, "trace_name": ""}
        expected = {**baseline.__dict__, "trace_name": ""}
        assert comparable == expected, label


def test_summary_sharing_identical_across_sources(
    small_trace, packed_path
):
    cfg = SummarySharingConfig(
        summary=SummaryConfig(kind="bloom", load_factor=8),
        update_policy=ThresholdUpdatePolicy(0.01),
    )
    results = {
        label: simulate_summary_sharing(source, GROUPS, CAPACITY, cfg)
        for label, source in _sources(small_trace, packed_path).items()
    }
    baseline = {**results["trace"].__dict__, "trace_name": ""}
    for label, result in results.items():
        assert {**result.__dict__, "trace_name": ""} == baseline, label


def test_icp_identical_across_sources(small_trace, packed_path):
    results = {
        label: simulate_icp(source, GROUPS, CAPACITY)
        for label, source in _sources(small_trace, packed_path).items()
    }
    baseline = {**results["trace"].__dict__, "trace_name": ""}
    for label, result in results.items():
        assert {**result.__dict__, "trace_name": ""} == baseline, label


@pytest.mark.parametrize(
    "simulate",
    [
        lambda source: [simulate_carp(source, GROUPS, CAPACITY)],
        lambda source: simulate_directory_server(source, GROUPS, CAPACITY),
        lambda source: [
            simulate_hierarchy(source, GROUPS, CAPACITY, 4 * CAPACITY)
        ],
    ],
    ids=["carp", "directory_server", "hierarchy"],
)
def test_alternatives_identical_across_sources(
    simulate, small_trace, packed_path
):
    """The non-``schemes`` simulators take any request iterable too."""
    results = {
        label: [
            {**record.__dict__, "trace_name": ""}
            for record in simulate(source)
        ]
        for label, source in _sources(small_trace, packed_path).items()
    }
    for label, records in results.items():
        assert records == results["trace"], label


def test_reader_keeps_trace_name(small_trace, packed_path):
    with BinaryTraceReader(packed_path) as reader:
        result = simulate_no_sharing(reader, GROUPS, CAPACITY)
    assert result.trace_name == small_trace.name


def test_generator_reports_stream_name(small_trace):
    result = simulate_no_sharing(
        (r for r in small_trace.requests), GROUPS, CAPACITY
    )
    assert result.trace_name == "stream"


@pytest.mark.parametrize("kind", ["bloom", "exact-directory"])
def test_the_replay_reads_one_record_at_a_time(kind):
    """Record k is drawn only after records 0..k-1 have been replayed.

    Every URL is new to the process-wide memo, so each record's local
    miss installs one memo line when it derives its probe key; the
    lines installed count the records replayed so far.
    """
    memo = get_position_cache()

    def installed():
        return len(memo) + memo.evictions

    start = installed()
    run = uuid.uuid4().hex

    def records():
        for k in range(40):
            behind = k - (installed() - start)
            assert behind == 0, (
                f"record {k} drawn with {behind} records not yet replayed"
            )
            yield Request(float(k), k, f"http://lazy-{run}.test/{k}", 100)

    cfg = SummarySharingConfig(summary=SummaryConfig(kind=kind))
    result = simulate_summary_sharing(records(), GROUPS, CAPACITY, cfg)
    assert result.requests == 40
    assert installed() - start == 40


def _untouched():
    """A trace that fails the test if anything reads a record of it."""
    raise AssertionError("a record was read")
    yield  # pragma: no cover - makes this a generator


@pytest.mark.parametrize(
    "simulate",
    [
        simulate_no_sharing,
        simulate_simple_sharing,
        simulate_single_copy_sharing,
        simulate_global_cache,
        simulate_summary_sharing,
        simulate_icp,
        simulate_carp,
        simulate_directory_server,
    ],
    ids=lambda f: f.__name__,
)
def test_zero_proxies_rejected_before_any_record_is_read(simulate):
    with pytest.raises(ConfigurationError, match="num_proxies"):
        simulate(_untouched(), 0, CAPACITY)
