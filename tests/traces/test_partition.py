"""Tests for clientid-mod-N proxy group assignment."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.traces.partition import client_streams, group_of


class TestGroupOf:
    def test_modulo_rule(self):
        assert group_of(17, 8) == 1
        assert group_of(16, 16) == 0

    def test_rejects_bad_group_count(self):
        with pytest.raises(ConfigurationError):
            group_of(1, 0)


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
