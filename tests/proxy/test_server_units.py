"""Unit tests of proxy internals (no sockets)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.bloom import BloomFilter
from repro.summaries import SummaryConfig
from repro.proxy.config import PeerAddress, ProxyConfig, ProxyMode
from repro.proxy.server import SummaryCacheProxy, _PeerState

BASE = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)

ORIGIN = ("127.0.0.1", 9)


def make_proxy(mode: ProxyMode) -> SummaryCacheProxy:
    return SummaryCacheProxy(replace(BASE, mode=mode), ORIGIN)


def peer_state(name: str, port: int) -> _PeerState:
    return _PeerState(
        PeerAddress(name=name, host="127.0.0.1", http_port=1, icp_port=port)
    )


class TestCandidatePeers:
    def test_no_icp_mode_queries_nobody(self):
        proxy = make_proxy(ProxyMode.NO_ICP)
        proxy._peers = {("127.0.0.1", 1001): peer_state("p1", 1001)}
        assert proxy._candidate_peers("http://a.com/x") == []

    def test_icp_mode_queries_all_alive_peers(self):
        proxy = make_proxy(ProxyMode.ICP)
        alive = peer_state("p1", 1001)
        dead = peer_state("p2", 1002)
        dead.alive = False
        proxy._peers = {
            alive.address.icp_addr: alive,
            dead.address.icp_addr: dead,
        }
        candidates = proxy._candidate_peers("http://a.com/x")
        assert candidates == [alive]

    def test_sc_icp_skips_peers_without_summaries(self):
        proxy = make_proxy(ProxyMode.SC_ICP)
        uninitialized = peer_state("p1", 1001)
        proxy._peers = {uninitialized.address.icp_addr: uninitialized}
        assert proxy._candidate_peers("http://a.com/x") == []

    def test_sc_icp_queries_only_positive_summaries(self):
        proxy = make_proxy(ProxyMode.SC_ICP)
        knows = peer_state("p1", 1001)
        knows.summary = BloomFilter(8192)
        knows.summary.add("http://a.com/x")
        blank = peer_state("p2", 1002)
        blank.summary = BloomFilter(8192)
        proxy._peers = {
            knows.address.icp_addr: knows,
            blank.address.icp_addr: blank,
        }
        assert proxy._candidate_peers("http://a.com/x") == [knows]
        assert proxy._candidate_peers("http://other.com/y") == []


class TestCacheBodySync:
    def test_store_keeps_cache_and_bodies_aligned(self):
        proxy = make_proxy(ProxyMode.NO_ICP)
        proxy._store("http://a.com/x", b"x" * 100)
        assert proxy._lookup_local("http://a.com/x") == b"x" * 100

    def test_oversized_body_not_retained(self):
        proxy = make_proxy(ProxyMode.NO_ICP)
        too_big = b"x" * (BASE.max_object_size + 1)
        proxy._store("http://a.com/huge", too_big)
        assert proxy._lookup_local("http://a.com/huge") is None
        assert "http://a.com/huge" not in proxy._bodies

    def test_desync_repaired_on_lookup(self):
        # If the body vanished (bug or manual eviction), the cache entry
        # must be dropped rather than serving nothing.
        proxy = make_proxy(ProxyMode.NO_ICP)
        proxy._store("http://a.com/x", b"data")
        proxy._bodies.pop("http://a.com/x")
        assert proxy._lookup_local("http://a.com/x") is None
        assert "http://a.com/x" not in proxy.cache

    def test_eviction_removes_body(self):
        config = replace(BASE, cache_capacity=1024)
        proxy = SummaryCacheProxy(config, ORIGIN)
        proxy._store("http://a.com/1", b"x" * 600)
        proxy._store("http://a.com/2", b"x" * 600)  # evicts /1
        assert "http://a.com/1" not in proxy._bodies
        assert proxy._lookup_local("http://a.com/2") is not None


class TestSummaryMaintenance:
    def test_inserts_and_evictions_tracked(self):
        config = replace(BASE, cache_capacity=1024)
        proxy = SummaryCacheProxy(config, ORIGIN)
        proxy._store("http://a.com/1", b"x" * 600)
        assert proxy.summary.may_contain("http://a.com/1")
        proxy._store("http://a.com/2", b"x" * 600)
        # /1 evicted: counters removed it from the local summary.
        assert not proxy.summary.may_contain("http://a.com/1")
        assert proxy.summary.may_contain("http://a.com/2")

    def test_reset_peer(self):
        proxy = make_proxy(ProxyMode.SC_ICP)
        state = peer_state("p1", 1001)
        state.summary = BloomFilter(64)
        proxy._peers = {state.address.icp_addr: state}
        proxy.reset_peer(state.address.icp_addr)
        assert proxy.peer_summary(state.address.icp_addr) is None

    def test_reset_unknown_peer_is_noop(self):
        proxy = make_proxy(ProxyMode.SC_ICP)
        proxy.reset_peer(("10.0.0.1", 99))  # no exception


class TestStatsView:
    def test_stats_read_the_registry_counters(self):
        """``proxy.stats`` stores nothing: a counter increment is visible
        through it with no second write anywhere."""
        proxy = make_proxy(ProxyMode.SC_ICP)
        assert proxy.stats.http_requests == 0
        assert proxy.stats.hit_ratio == 0.0
        proxy.registry.counter("proxy_http_requests_total").inc(4)
        proxy.registry.counter("proxy_local_hits_total").inc()
        proxy.registry.counter("proxy_icp_false_hits_total").inc(2)
        assert proxy.stats.http_requests == 4
        assert proxy.stats.false_query_rounds == 2
        assert proxy.stats.hit_ratio == 0.25
        proxy._on_datagram(b"garbage", ("127.0.0.1", 9))
        assert proxy.stats.udp_received == 1
        assert proxy.registry.value("proxy_udp_received_total") == 1

    def test_stats_reject_assignment(self):
        proxy = make_proxy(ProxyMode.SC_ICP)
        with pytest.raises(AttributeError):
            proxy.stats.http_requests = 7
        with pytest.raises(AttributeError):
            proxy.stats.not_a_field = 1
        assert proxy.stats.http_requests == 0
