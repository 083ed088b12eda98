"""Tests for clientid-mod-N proxy group assignment."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.traces.partition import (
    client_streams,
    group_of,
    partition_by_client,
    split_by_group,
)


class TestGroupOf:
    def test_modulo_rule(self):
        assert group_of(17, 8) == 1
        assert group_of(16, 16) == 0

    def test_rejects_bad_group_count(self):
        with pytest.raises(ConfigurationError):
            group_of(1, 0)


class TestPartition:
    def test_partition_counts_and_order(self, tiny_trace):
        parts = partition_by_client(tiny_trace, 2)
        assert len(parts) == 2
        assert sum(len(p) for p in parts) == len(tiny_trace)
        # Client 0's requests all land in group 0, in trace order.
        assert [r.timestamp for r in parts[0]] == [0.0, 2.0, 4.0]
        assert all(r.client_id % 2 == 0 for r in parts[0])

    def test_partition_names(self, tiny_trace):
        parts = partition_by_client(tiny_trace, 2)
        assert parts[0].name == "tiny/g0"

    def test_empty_groups_allowed(self, tiny_trace):
        parts = partition_by_client(tiny_trace, 5)
        assert len(parts) == 5
        assert sum(len(p) for p in parts) == len(tiny_trace)


class TestSplitByGroup:
    def test_annotation_preserves_global_order(self, tiny_trace):
        annotated = split_by_group(tiny_trace, 2)
        assert [g for g, _r in annotated] == [0, 1, 0, 1, 0, 1]
        assert [r.timestamp for _g, r in annotated] == [
            0.0,
            1.0,
            2.0,
            3.0,
            4.0,
            5.0,
        ]


class TestGroupedChunks:
    def test_flattened_chunks_equal_split_by_group(self, tiny_trace):
        from repro.traces.partition import grouped_chunks

        expected = split_by_group(tiny_trace, 2)
        for chunk_size in (1, 2, len(tiny_trace), len(tiny_trace) + 5):
            flattened = [
                pair
                for chunk in grouped_chunks(tiny_trace, 2, chunk_size=chunk_size)
                for pair in chunk
            ]
            assert flattened == expected

    def test_chunk_boundaries(self, tiny_trace):
        from repro.traces.partition import grouped_chunks

        sizes = [len(c) for c in grouped_chunks(tiny_trace, 2, chunk_size=4)]
        assert sizes == [4, len(tiny_trace) - 4]

    def test_rejects_bad_group_count(self, tiny_trace):
        from repro.traces.partition import grouped_chunks

        with pytest.raises(ConfigurationError):
            list(grouped_chunks(tiny_trace, 0))

    def test_rejects_bad_chunk_size(self, tiny_trace):
        from repro.traces.partition import grouped_chunks

        with pytest.raises(ConfigurationError):
            list(grouped_chunks(tiny_trace, 2, chunk_size=0))


class TestIterableInputs:
    """The partition helpers accept any Request iterable, not just Trace."""

    def test_grouped_chunks_over_generator(self, tiny_trace):
        from repro.traces.partition import grouped_chunks

        from_trace = [
            pair
            for chunk in grouped_chunks(tiny_trace, 2, chunk_size=2)
            for pair in chunk
        ]
        from_stream = [
            pair
            for chunk in grouped_chunks(
                (r for r in tiny_trace.requests), 2, chunk_size=2
            )
            for pair in chunk
        ]
        assert from_stream == from_trace

    def test_partition_by_client_over_generator(self, tiny_trace):
        expected = partition_by_client(tiny_trace, 2)
        actual = partition_by_client(
            (r for r in tiny_trace.requests), 2
        )
        for expected_part, actual_part in zip(expected, actual):
            assert actual_part.requests == expected_part.requests

    def test_split_by_group_over_generator(self, tiny_trace):
        assert split_by_group(
            (r for r in tiny_trace.requests), 2
        ) == split_by_group(tiny_trace, 2)


def dealt(streams):
    return [(proxy, [r.timestamp for r in requests]) for proxy, requests in streams]


class TestClientStreams:
    def test_client_bound_deals_by_client_then_round_robin(self, tiny_trace):
        # Client 0's requests (t=0, 2, 4) go to proxy 0's two clients
        # in turn; client 1's (t=1, 3, 5) to proxy 1's.
        assert dealt(client_streams(tiny_trace, 2, 2)) == [
            (0, [0.0, 4.0]),
            (0, [2.0]),
            (1, [1.0, 5.0]),
            (1, [3.0]),
        ]

    def test_round_robin_deals_in_trace_order(self, tiny_trace):
        streams = client_streams(tiny_trace, 3, 1, "round-robin")
        assert dealt(streams) == [
            (0, [0.0, 3.0]),
            (1, [1.0, 4.0]),
            (2, [2.0, 5.0]),
        ]

    @pytest.mark.parametrize(
        "args", [(2, 1, "zigzag"), (0, 1, "client-bound"), (2, 0, "round-robin")]
    )
    def test_rejects_bad_arguments(self, tiny_trace, args):
        with pytest.raises(ConfigurationError):
            client_streams(tiny_trace, *args)

    @pytest.mark.parametrize("assignment", ["client-bound", "round-robin"])
    def test_a_lazy_deal_matches_the_one_pass_deal(self, tiny_trace, assignment):
        for proxies, clients in [(1, 1), (2, 2), (3, 2), (4, 3)]:
            eager = client_streams(tiny_trace, proxies, clients, assignment)
            lazy = client_streams(
                tiny_trace, proxies, clients, assignment, lazy=True
            )
            assert dealt(lazy) == dealt(eager)

    def test_a_one_pass_deal_takes_a_one_shot_iterator(self, tiny_trace):
        streams = client_streams(iter(tiny_trace.requests), 2, 2)
        assert dealt(streams) == dealt(client_streams(tiny_trace, 2, 2))

    def test_a_lazy_deal_rejects_a_one_shot_iterator(self, tiny_trace):
        # Every client's scan would share the iterator and take the
        # others' requests.
        with pytest.raises(ConfigurationError, match="one-shot"):
            client_streams(iter(tiny_trace.requests), 2, 2, lazy=True)
        with pytest.raises(ConfigurationError, match="one-shot"):
            client_streams((r for r in tiny_trace), 2, 2, lazy=True)
