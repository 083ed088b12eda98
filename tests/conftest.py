"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.bloom import BloomFilter
from repro.traces.model import Request, Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

# Inert unless SC_SANITIZE=1: then every proxy a test builds registers
# with the process-wide interleaving sanitizer and this plugin fails
# any test that produced violations (the CI sanitizer-smoke job).
pytest_plugins = ("repro.sanitizer.pytest_plugin",)


def plain_copy(summary) -> BloomFilter:
    """The plain filter a peer holds of a Bloom *summary*: its bits, as
    a completed DIGEST delivers them."""
    return BloomFilter.from_bytes(
        summary.num_bits,
        summary.counters.bits.to_bytes(),
        hash_family=summary.hash_family,
    )


@pytest.fixture(scope="session")
def small_trace() -> Trace:
    """A deterministic ~4000-request synthetic trace shared by tests."""
    return generate_trace(
        SyntheticTraceConfig(
            name="test-small",
            num_requests=4000,
            num_clients=32,
            num_documents=1500,
            mean_size=2048,
            max_size=128 * 1024,
            mod_probability=0.01,
            seed=99,
        )
    )


@pytest.fixture
def tiny_trace() -> Trace:
    """A hand-checkable 6-request trace over 2 clients and 3 documents."""
    return Trace(
        name="tiny",
        requests=[
            Request(0.0, 0, "http://a.com/1", 100, 0),
            Request(1.0, 1, "http://a.com/1", 100, 0),
            Request(2.0, 0, "http://b.com/2", 200, 0),
            Request(3.0, 1, "http://b.com/2", 200, 0),
            Request(4.0, 0, "http://a.com/1", 100, 0),
            Request(5.0, 1, "http://c.com/3", 300, 0),
        ],
    )
