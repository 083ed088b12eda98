"""Streamed replay is bit-exact with materialized replay.

The streaming trace engine changes how requests reach the simulators
(an mmap reader or a bare generator instead of an in-memory list) but
must not change a single counter of what they compute.  Every sharing
simulator is fed the same workload three ways -- materialized
:class:`~repro.traces.model.Trace`, :class:`~repro.traces.binary.
BinaryTraceReader`, and one-shot generator -- and the results compared
with dataclass equality (every hit, byte, and message count).
"""

from __future__ import annotations

import pytest

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
