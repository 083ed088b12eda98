"""Unit tests of proxy internals (no sockets)."""

from __future__ import annotations

import asyncio
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.protocol.wire import DirUpdate, IcpHit, IcpMiss, decode_message
from repro.summaries import SummaryConfig, SummaryNode, codec
from repro.proxy.config import PeerAddress, ProxyConfig, ProxyMode
from repro.proxy.http import HttpResponse
from repro.proxy.server import SummaryCacheProxy, _PeerState

BASE = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)

ORIGIN = ("127.0.0.1", 9)


def make_proxy(mode: ProxyMode) -> SummaryCacheProxy:
    return SummaryCacheProxy(replace(BASE, mode=mode), ORIGIN)


def peer_address(name: str, port: int) -> PeerAddress:
    return PeerAddress(name=name, host="127.0.0.1", http_port=1, icp_port=port)


def peer_state(name: str, port: int) -> _PeerState:
    return _PeerState(peer_address(name, port), slot=0)


def send_summary(proxy, sender: PeerAddress, urls) -> None:
    """Deliver, as datagrams from *sender*, a Bloom summary of *urls*."""
    node = SummaryNode(BASE.summary, 1 << 20)
    for url in urls:
        node.on_insert(url)
    num, bits = node.local.hash_family.spec()
    # An empty summary still travels: one DIRUPDATE with no records.
    messages = codec.delta_messages(node.local, node.publish(0.0)) or [
        DirUpdate(num, bits, node.local.num_bits)
    ]
    for message in messages:
        proxy._on_datagram(message.encode(), sender.icp_addr)


def candidate_names(proxy, url="http://a.com/x"):
    return [state.address.name for state in proxy._candidate_peers(url)]


class TestCandidatePeers:
    def test_no_icp_mode_queries_nobody(self):
        proxy = make_proxy(ProxyMode.NO_ICP)
        proxy.set_peers([peer_address("p1", 1001)])
        assert proxy._candidate_peers("http://a.com/x") == []

    def test_icp_mode_queries_all_alive_peers(self):
        """A peer retired with ``remove_peer`` is never queried."""
        proxy = make_proxy(ProxyMode.ICP)
        proxy.set_peers([peer_address("p1", 1001), peer_address("p2", 1002)])
        assert candidate_names(proxy) == ["p1", "p2"]
        proxy.remove_peer("p2")
        assert candidate_names(proxy) == ["p1"]

    def test_sc_icp_skips_peers_without_summaries(self):
        proxy = make_proxy(ProxyMode.SC_ICP)
        proxy.set_peers([peer_address("p1", 1001)])
        assert proxy._candidate_peers("http://a.com/x") == []

    def test_sc_icp_queries_only_positive_summaries(self):
        proxy = make_proxy(ProxyMode.SC_ICP)
        knows, blank = peer_address("p1", 1001), peer_address("p2", 1002)
        proxy.set_peers([blank, knows])
        send_summary(proxy, knows, ["http://a.com/x"])
        send_summary(proxy, blank, [])
        assert candidate_names(proxy) == ["p1"]
        assert proxy.peer_geometry(blank.icp_addr) is not None

    def test_candidates_follow_peer_order_across_joins(self):
        proxy = make_proxy(ProxyMode.SC_ICP)
        a, b, c = (peer_address(n, 1001 + i) for i, n in enumerate("abc"))
        proxy.set_peers([a, b])
        proxy.remove_peer("a")
        proxy.add_peer(c)
        proxy.add_peer(a)
        for sender in (a, b, c):
            send_summary(proxy, sender, ["http://a.com/x"])
        assert candidate_names(proxy) == ["b", "c", "a"]
        assert proxy._candidate_peers("http://other.com/y") == []


class _FakeTransport:
    """Records datagrams instead of sending them."""

    def __init__(self) -> None:
        self.sent = []

    def sendto(self, data, addr) -> None:
        self.sent.append((data, addr))


class TestQueryRound:
    """``_handle_reply`` through ``_on_datagram``, no sockets."""

    URL = "http://a.com/x"

    @pytest.mark.parametrize(
        "replies, winner",
        [
            # A HIT from an unconfigured sender is ignored; the queried
            # peer's HIT wins.
            ([("stray", True), ("a", False), ("b", True)], "b"),
            # A configured peer this round never queried cannot end it;
            # a repeated MISS counts once; the last MISS resolves None.
            (
                [("c", True), ("a", False), ("a", False), ("b", False)],
                None,
            ),
        ],
    )
    def test_only_queried_peers_resolve_the_round(self, replies, winner):
        async def scenario():
            proxy = make_proxy(ProxyMode.ICP)
            proxy._udp = _FakeTransport()
            peers = {
                name: peer_state(name, port)
                for name, port in (("a", 1001), ("b", 1002), ("c", 1003))
            }
            proxy._peers = {
                state.address.icp_addr: state for state in peers.values()
            }
            addrs = {n: s.address.icp_addr for n, s in peers.items()}
            addrs["stray"] = ("127.0.0.1", 4242)
            round_task = asyncio.ensure_future(
                proxy._query_peers(self.URL, [peers["a"], peers["b"]])
            )
            await asyncio.sleep(0)
            sent = proxy._udp.sent
            assert [addr for _, addr in sent] == [addrs["a"], addrs["b"]]
            reqnum = decode_message(sent[0][0]).request_number
            for sender, hit in replies[:-1]:
                reply = (IcpHit if hit else IcpMiss)(self.URL, reqnum)
                proxy._on_datagram(reply.encode(), addrs[sender])
                await asyncio.sleep(0)
                assert not round_task.done()
            sender, hit = replies[-1]
            reply = (IcpHit if hit else IcpMiss)(self.URL, reqnum)
            proxy._on_datagram(reply.encode(), addrs[sender])
            holder = await asyncio.wait_for(round_task, timeout=1.0)
            assert proxy.stats.udp_sent == 2
            assert proxy.stats.icp_queries_sent == 2
            assert proxy.stats.icp_replies_received == len(replies)
            return holder.address.name if holder is not None else None

        assert asyncio.run(scenario()) == winner

    def test_silent_peers_time_the_round_out(self):
        async def scenario():
            proxy = SummaryCacheProxy(
                replace(BASE, mode=ProxyMode.ICP, icp_timeout=0.02), ORIGIN
            )
            proxy._udp = _FakeTransport()
            peer = peer_state("a", 1001)
            proxy._peers = {peer.address.icp_addr: peer}
            root = proxy.spans.start_span("http.request")
            holder = await proxy._query_peers(self.URL, [peer], root)
            return proxy, holder, root

        proxy, holder, root = asyncio.run(scenario())
        assert holder is None
        assert proxy.registry.value("proxy_icp_timeouts_total") == 1
        assert proxy._pending == {}
        # The round writes no span of its own: the timeout and the
        # round's wall time land on the request's root span.
        assert proxy.spans.spans() == [root]
        assert root.events[-1]["kind"] == "icp.timeout"
        assert root.attributes["icp_round_s"] >= 0.02
        (query,) = [decode_message(data) for data, _ in proxy._udp.sent]
        assert (query.trace_id, query.parent_span) == (
            root.trace_id,
            root.span_id,
        )


class TestUpstreamGet:
    """``_upstream_get`` over a stubbed ``pool.get``: one verdict table."""

    @pytest.mark.parametrize(
        "outcome, expected",
        [
            (
                HttpResponse(200, {"x-cache": "hit"}, b"body"),
                ("ok", b"body", "HIT"),
            ),
            (HttpResponse(504), ("error", b"", "")),
            (ConnectionRefusedError(), ("gone", b"", "")),
        ],
    )
    def test_verdicts(self, outcome, expected):
        proxy = make_proxy(ProxyMode.NO_ICP)
        seen = {}

        async def fake_get(host, port, url, headers):
            seen.update(host=host, port=port, headers=dict(headers))
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        proxy._pool = SimpleNamespace(get=fake_get)
        peer = peer_state("p1", 1001)
        root = proxy.spans.start_span("http.request")
        result = asyncio.run(
            proxy._upstream_get(
                peer, "http://a.com/x", {"X-Mark": "1"}, "64", root
            )
        )
        assert result == expected
        assert (seen["host"], seen["port"]) == ("127.0.0.1", 1)
        assert seen["headers"]["X-Mark"] == "1"
        assert seen["headers"]["X-Size"] == "64"
        assert seen["headers"]["X-SC-Trace"] == root.header_value()
        # The fetch writes no span of its own: its verdict, source and
        # wall time land on the caller's span.
        assert proxy.spans.spans() == [root]
        assert root.attributes["peer"] == "p1"
        assert root.attributes["peer_fetch"] == expected[0]
        assert root.attributes["peer_source"] == expected[2]
        assert root.attributes["peer_fetch_s"] >= 0.0
        phase = proxy.registry.get(
            "proxy_request_phase_seconds", {"phase": "peer_fetch"}
        )
        assert phase.count == 1


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
        peer = peer_address("p1", 1001)
        proxy.set_peers([peer])
        send_summary(proxy, peer, ["http://a.com/x"])
        assert candidate_names(proxy) == ["p1"]
        proxy.reset_peer(peer.icp_addr)
        assert proxy.peer_geometry(peer.icp_addr) is None
        assert candidate_names(proxy) == []

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
