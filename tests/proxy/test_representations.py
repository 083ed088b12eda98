"""Live-cluster tests of the unified summary backend.

The prototype must run every Section V representation end to end:
representation-tagged DIRUPDATEs initialize the peers' copies, and
remote hits resolve through them.  The resize tests cover
the whole-filter resync path and the clean rejection of stale
old-geometry deltas (the proxy never guesses at a peer's geometry).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.protocol.wire import DirUpdate
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.config import PeerAddress
from repro.proxy.server import SummaryCacheProxy
from repro.summaries import (
    SummaryConfig,
    SummaryNode,
    ThresholdUpdatePolicy,
    codec,
)
from tests.proxy.conftest import copy_holds


def run(coro):
    return asyncio.run(coro)


def config_for(kind: str, **overrides) -> ProxyConfig:
    kwargs = {
        "summary": SummaryConfig(kind=kind, load_factor=8),
        "expected_doc_size": 1024,
    }
    kwargs.update(overrides)
    return ProxyConfig(**kwargs)


class TestRepresentationsEndToEnd:
    @pytest.mark.parametrize(
        "kind", ["bloom", "exact-directory", "server-name"]
    )
    def test_remote_hits_resolve_through_peer_summaries(self, kind):
        """Each representation's DIRUPDATEs must initialize a copy of
        the right shape and steer the requester to the peer that holds
        the document."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=config_for(kind),
            ) as cluster:
                d0 = cluster.driver_for(0)
                # Distinct server names so the server-name summary has
                # real content, not one collapsed entry.
                urls = [f"http://s{i}.rep.net/doc{i}" for i in range(30)]
                for url in urls:
                    await d0.fetch(url, size=512)
                await asyncio.sleep(0.1)
                proxy0, proxy1 = cluster.proxies
                addr0 = (proxy0.config.host, proxy0.icp_port)
                geometry = proxy1.peer_geometry(addr0)
                coverage = sum(copy_holds(proxy1, addr0, u) for u in urls)
                d1 = cluster.driver_for(1)
                body = await d1.fetch(urls[5], size=512)
                return proxy0, proxy1, geometry, coverage, urls, body

        proxy0, proxy1, geometry, coverage, urls, body = run(scenario())
        assert proxy0.stats.dirupdates_sent > 0
        assert geometry == proxy0.summary.geometry
        assert coverage > len(urls) * 0.9
        assert proxy1.stats.remote_hits == 1
        assert len(body) == 512
        assert proxy1.stats.dirupdate_rejects == 0

    @pytest.mark.parametrize("kind", ["exact-directory", "server-name"])
    def test_set_updates_carry_removals(self, kind):
        """Evictions must reach the peers as removal records, so the
        remote copy tracks the true directory, not its union."""

        async def scenario():
            config = config_for(
                kind, update_policy=ThresholdUpdatePolicy(0.0)
            )
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=16 * 1024,  # tiny: forces evictions
                base_config=config,
            ) as cluster:
                d0 = cluster.driver_for(0)
                urls = [f"http://e{i}.rm.net/d{i}" for i in range(24)]
                for url in urls:
                    await d0.fetch(url, size=4096)
                await asyncio.sleep(0.1)
                proxy0, proxy1 = cluster.proxies
                addr0 = (proxy0.config.host, proxy0.icp_port)
                assert proxy1.peer_geometry(addr0) == ()
                held = {u for u in urls if copy_holds(proxy1, addr0, u)}
                return proxy0, held, urls

        proxy0, held, urls = run(scenario())
        assert proxy0.cache.stats.evictions > 0
        # The peer's copy mirrors the live directory: old evicted
        # entries are gone from the exact copy (server names may
        # legitimately linger only while another doc shares them,
        # which these URLs never do).
        cached = {u for u in urls if u in proxy0.cache}
        assert held == cached


    def test_host_larger_than_a_datagram_reaches_the_peer(self):
        """A server name over the update budget ships alone in an
        oversized datagram: the client still gets its document, and the
        peer's copy holds the name."""
        url = f"http://{'h' * 2000}/doc"

        async def scenario():
            config = config_for(
                "server-name", update_policy=ThresholdUpdatePolicy(0.0)
            )
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=config,
            ) as cluster:
                body = await cluster.driver_for(0).fetch(url, size=512)
                await asyncio.sleep(0.1)
                proxy0, proxy1 = cluster.proxies
                addr0 = (proxy0.config.host, proxy0.icp_port)
                return proxy1, body, copy_holds(proxy1, addr0, url)

        proxy1, body, held = run(scenario())
        assert len(body) == 512
        assert held
        assert proxy1.stats.dirupdate_rejects == 0


class TestMixedRepresentations:
    """A peer whose updates carry another representation than this
    proxy's is rejected and counted; its slot never gets a copy."""

    @pytest.mark.parametrize(
        "mine, theirs",
        [
            ("bloom", "exact-directory"),
            ("exact-directory", "server-name"),
            ("server-name", "bloom"),
            ("exact-directory", "bloom"),
        ],
    )
    def test_foreign_representation_is_rejected(self, mine, theirs):
        url = "http://mixed.net/doc"
        proxy = SummaryCacheProxy(
            config_for(mine, mode=ProxyMode.SC_ICP), ("127.0.0.1", 9)
        )
        peer = PeerAddress("p1", "127.0.0.1", http_port=1, icp_port=1001)
        proxy.set_peers([peer])
        node = SummaryNode(SummaryConfig(kind=theirs), 1 << 20)
        node.on_insert(url)
        messages = codec.delta_messages(node.local, node.publish(0.0))
        rejects = len(messages)
        if theirs == "bloom":
            # A whole-filter DIGEST (one chunk at this size) too.
            messages += codec.whole_summary_messages(node.local)
            rejects += 1
        for message in messages:
            proxy._on_datagram(message.encode(), peer.icp_addr)
        assert proxy.stats.dirupdate_rejects == rejects > 0
        assert proxy.peer_geometry(peer.icp_addr) is None
        assert proxy._candidate_peers(url) == []
        reasons = [
            span.attributes["reason"]
            for span in proxy.spans.spans()
            if span.name == "dirupdate.reject"
        ]
        assert len(reasons) == rejects
        assert all(f"store of {mine} copies" in r for r in reasons)


class TestLiveThreshold:
    def test_zero_threshold_ships_update_per_insert(self):
        """ThresholdUpdatePolicy(0) is the paper's no-delay line: every
        insert is announced immediately."""

        async def scenario():
            config = config_for(
                "bloom", update_policy=ThresholdUpdatePolicy(0.0)
            )
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=512 * 1024,
                base_config=config,
            ) as cluster:
                d0 = cluster.driver_for(0)
                sent_after_each = []
                for i in range(10):
                    await d0.fetch(f"http://live.net/d{i}", size=512)
                    sent_after_each.append(
                        cluster.proxies[0].stats.dirupdates_sent
                    )
                return sent_after_each

        sent_after_each = run(scenario())
        # One peer, one small delta per insert: the counter advances
        # with every single fetch.
        assert sent_after_each == list(range(1, 11))

    def test_zero_threshold_policy_is_live(self):
        assert ThresholdUpdatePolicy(0.0).live is True
        assert ThresholdUpdatePolicy(0.01).live is False


class TestResizeResync:
    def _scenario_result(self):
        async def scenario():
            config = config_for(
                "bloom",
                expected_doc_size=32 * 1024,  # drastically undersized
                update_policy=ThresholdUpdatePolicy(0.05),
            )
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.SC_ICP,
                cache_capacity=2 * 2**20,
                base_config=config,
            ) as cluster:
                d0 = cluster.driver_for(0)
                urls = [f"http://rz.net/d{i}" for i in range(200)]
                for url in urls:
                    await d0.fetch(url, size=512)
                await asyncio.sleep(0.1)
                proxy0, proxy1, proxy2 = cluster.proxies
                addr0 = (proxy0.config.host, proxy0.icp_port)
                views = [
                    (
                        peer.peer_geometry(addr0),
                        sum(copy_holds(peer, addr0, u) for u in urls),
                    )
                    for peer in (proxy1, proxy2)
                ]

                # Inject a stale delta with the pre-resize geometry, as
                # if it had been in flight across the resize.
                old_bits = proxy0.summary.num_bits // 2
                fn_num, fn_bits = proxy0.summary.hash_family.spec()
                stale = DirUpdate(
                    function_num=fn_num,
                    function_bits=fn_bits,
                    bit_array_size=old_bits,
                    flips=((1, True), (2, True)),
                )
                rejects_before = proxy1.stats.dirupdate_rejects
                proxy1._on_datagram(stale.encode(), addr0)
                views.append(
                    (
                        proxy1.peer_geometry(addr0),
                        sum(copy_holds(proxy1, addr0, u) for u in urls),
                    )
                )

                d1 = cluster.driver_for(1)
                await d1.fetch(urls[7], size=512)
                return (
                    proxy0,
                    proxy1,
                    views,
                    urls,
                    rejects_before,
                )

        return run(scenario())

    def test_peers_resync_through_digest_and_reject_stale_deltas(self):
        proxy0, proxy1, views, urls, rejects_before = (
            self._scenario_result()
        )
        assert proxy0.stats.summary_resizes >= 1
        # The registry counter tracks the stat (and carries the
        # representation label).
        counter = proxy0.registry.counter(
            "proxy_summary_resizes_total",
            labels={"representation": "bloom"},
        )
        assert counter.value == proxy0.stats.summary_resizes

        # Every peer converged on the post-resize geometry with no
        # stale view: remote probes answer for the current directory.
        # (The last view is proxy 1's again, after the stale delta.)
        for geometry, coverage in views:
            assert geometry == proxy0.summary.geometry
            assert coverage > len(urls) * 0.9

        # The stale old-geometry delta was rejected cleanly: counted,
        # copy untouched, proxy still serving.
        assert proxy1.stats.dirupdate_rejects == rejects_before + 1
        assert views[2] == views[0]
        assert proxy1.stats.remote_hits == 1
