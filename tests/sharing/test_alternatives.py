"""Tests for the alternative-protocol baselines (CARP, directory server)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sharing.carp import simulate_carp
from repro.placement import carp_owner
from repro.sharing.directory_server import simulate_directory_server
from repro.sharing.schemes import (
    simulate_global_cache,
    simulate_simple_sharing,
)
from repro.traces.model import Request, Trace


class TestCarpOwner:
    def test_deterministic(self):
        assert carp_owner("http://a.com/x", 8) == carp_owner(
            "http://a.com/x", 8
        )

    def test_within_range(self):
        for i in range(50):
            assert 0 <= carp_owner(f"http://u{i}.com/", 7) < 7

    def test_roughly_balanced(self):
        counts = [0] * 8
        for i in range(4000):
            counts[carp_owner(f"http://host{i}.net/doc{i}", 8)] += 1
        assert min(counts) > 350
        assert max(counts) < 650

    def test_rendezvous_stability(self):
        """Growing the array only moves keys TO the new member, never
        between old members -- the property CARP hashes for."""
        urls = [f"http://h{i}.com/d{i}" for i in range(500)]
        before = {u: carp_owner(u, 7) for u in urls}
        after = {u: carp_owner(u, 8) for u in urls}
        for url in urls:
            if after[url] != before[url]:
                assert after[url] == 7  # moved to the newcomer only

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            carp_owner("u", 0)


class TestCarpSimulation:
    def test_no_duplicate_storage(self, tiny_trace):
        # With one owner per URL, a repeat from ANY client hits.
        r = simulate_carp(tiny_trace, 2, 10_000)
        # /1 repeats twice, /2 once: 3 hits of 6 (same as global cache).
        g = simulate_global_cache(tiny_trace, 2, 5_000)
        assert r.hits == g.local_hits == 3

    def test_remote_routing_dominates_with_many_proxies(self, small_trace):
        r = simulate_carp(small_trace, 8, 100_000)
        # Only ~1/8 of requests hash to the client's own proxy.
        assert r.remote_routing_ratio == pytest.approx(7 / 8, abs=0.05)
        assert r.local_routed + r.remote_routed == r.requests

    def test_hit_ratio_close_to_global_cache(self, small_trace):
        carp = simulate_carp(small_trace, 4, 100_000)
        pooled = simulate_global_cache(small_trace, 4, 100_000)
        # CARP is a partitioned global cache; partitioning skew costs a
        # little but the ratios stay close.
        assert carp.hit_ratio == pytest.approx(
            pooled.total_hit_ratio, abs=0.05
        )


class TestDirectoryServer:
    def test_hit_ratio_matches_simple_sharing(self, small_trace):
        # The server asks the holders it lists in ascending peer order,
        # so it finds the copy the oracle finds: every field but the
        # scheme and the messages agrees, past 8 proxies too (where a
        # set of ints stops iterating in ascending order).
        for num_proxies, capacity in ((4, 200_000), (16, 50_000)):
            ds, _load = simulate_directory_server(
                small_trace, num_proxies, capacity
            )
            oracle = simulate_simple_sharing(
                small_trace, num_proxies, capacity
            )
            unpriced = {"scheme": "", "messages": None}
            assert {**vars(ds), **unpriced} == {
                **vars(oracle),
                **unpriced,
            }, num_proxies

    def test_no_false_events(self, small_trace):
        ds, _load = simulate_directory_server(small_trace, 4, 200_000)
        # The central directory is exact and current.
        assert ds.false_hits == 0
        assert ds.false_misses == 0

    def test_server_load_accounting(self, small_trace):
        ds, load = simulate_directory_server(small_trace, 4, 200_000)
        misses = ds.requests - ds.local_hits
        assert load.queries == misses
        assert load.replies == misses
        # Every insert and evict notifies the server.
        assert load.change_notifications == ds.messages.update_messages
        assert load.total == load.queries + load.replies + (
            load.change_notifications
        )
        assert load.per_request(ds.requests) > 0.5

    def test_stale_copies_handled(self):
        trace = Trace(
            requests=[
                Request(0.0, 0, "u", 100, version=0),
                Request(1.0, 1, "u", 100, version=1),
            ]
        )
        ds, _load = simulate_directory_server(trace, 2, 10_000)
        assert ds.remote_stale_hits == 1
        assert ds.remote_hits == 0
