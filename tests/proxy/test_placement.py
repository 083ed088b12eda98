"""End-to-end tests of owner-routed placement on the live data plane.

Covers the cooperation policies (carp owner routing, single-copy
discovery) over real sockets, membership-change rebalancing through
:meth:`ProxyCluster.add_proxy` / :meth:`ProxyCluster.remove_proxy`,
and failover when a peer dies mid-replay without saying goodbye.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

from repro.core.hashing import md5_digest
from repro.summaries import SummaryConfig
from repro.placement import CooperationPolicy
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode

BASE_CONFIG = ProxyConfig(
    summary=SummaryConfig(kind="bloom", load_factor=8),
    expected_doc_size=1024,
)
CARP_CONFIG = replace(BASE_CONFIG, cooperation="carp")


def run(coro):
    return asyncio.run(coro)


def cached_urls(proxy) -> set:
    return set(proxy.cache.urls())


class TestCarpRouting:
    def test_single_copy_per_object_at_the_owner(self):
        """Under carp every document lands exactly once cluster-wide,
        at the proxy the hash ring names as its owner."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.NO_ICP,
                cache_capacity=4 * 1024 * 1024,
                base_config=CARP_CONFIG,
            ) as cluster:
                urls = [f"http://carp.com/d{i}" for i in range(24)]
                drivers = [cluster.driver_for(i) for i in range(3)]
                for i, url in enumerate(urls):
                    await drivers[i % 3].fetch(url, size=512)
                # Second pass from *different* proxies: all hits.
                for i, url in enumerate(urls):
                    await drivers[(i + 1) % 3].fetch(url, size=512)
                holdings = [cached_urls(p) for p in cluster.proxies]
                owners = {
                    url: cluster.proxies[0].placement.owner(md5_digest(url))
                    for url in urls
                }
                names = [p.config.name for p in cluster.proxies]
                origin_requests = cluster.origin.stats.requests
                reports = [d.report for d in drivers]
                stats = [p.stats for p in cluster.proxies]
                origin_phase_count = sum(
                    p.registry.get(
                        "proxy_request_phase_seconds",
                        {"phase": "origin_fetch"},
                    ).count
                    for p in cluster.proxies
                )
            return (
                urls, holdings, owners, names, origin_requests, reports,
                stats, origin_phase_count,
            )

        (
            urls, holdings, owners, names, origin_requests, reports,
            stats, origin_phase_count,
        ) = run(scenario())
        # Each document was fetched from the origin exactly once ...
        assert origin_requests == len(urls)
        # ... lives at exactly one proxy: the ring's owner for it.
        for url in urls:
            holders = [
                name
                for name, held in zip(names, holdings)
                if url in held
            ]
            assert holders == [owners[url]]
        # The second pass never touched the origin.
        sources: dict = {}
        for report in reports:
            for source, count in report.cache_sources.items():
                sources[source] = sources.get(source, 0) + count
        assert sources.get("MISS", 0) == len(urls)
        assert (
            sources.get("HIT", 0) + sources.get("REMOTE-HIT", 0)
            == len(urls)
        )
        assert sum(s.peer_forwards for s in stats) > 0
        assert all(r.errors == 0 for r in reports)
        # Owner-side origin fetches (a forwarded miss) are timed like
        # any other: the phase histogram counts what the counter counts.
        assert sum(s.origin_fetches for s in stats) == len(urls)
        assert origin_phase_count == len(urls)

    def test_stats_endpoint_reports_cooperation(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.NO_ICP,
                base_config=replace(
                    BASE_CONFIG, cooperation=CooperationPolicy.CARP
                ),
            ) as cluster:
                proxy = cluster.proxies[0]
                return (
                    proxy.config.cooperation,
                    sorted(proxy.placement.members),
                )

        cooperation, members = run(scenario())
        assert cooperation is CooperationPolicy.CARP
        assert members == ["proxy0", "proxy1"]

    def test_no_summary_traffic_in_the_default_mode(self):
        """Owner routing needs no discovery, so a carp cluster in
        ProxyCluster's default sc-icp mode ships no DIRUPDATE or DIGEST
        (both count in ``dirupdates_sent``) and sends no datagram."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=3,
                cache_capacity=4 * 1024 * 1024,
                base_config=CARP_CONFIG,
            ) as cluster:
                drivers = [cluster.driver_for(i) for i in range(3)]
                for i in range(200):
                    await drivers[i % 3].fetch(
                        f"http://carp.com/u{i}", size=512
                    )
                return [p.stats for p in cluster.proxies]

        stats = run(scenario())
        assert sum(s.http_requests for s in stats) == 200
        assert sum(s.dirupdates_sent for s in stats) == 0
        assert sum(s.summary_resizes for s in stats) == 0
        assert sum(s.udp_sent for s in stats) == 0


class TestSingleCopyDiscovery:
    def test_remote_hits_are_not_duplicated(self):
        """single-copy discovers peer copies via summaries but never
        caches them locally; summary duplicates them."""

        async def scenario(cooperation):
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.SC_ICP,
                cache_capacity=4 * 1024 * 1024,
                base_config=replace(BASE_CONFIG, cooperation=cooperation),
            ) as cluster:
                d0 = cluster.driver_for(0)
                d1 = cluster.driver_for(1)
                urls = [f"http://sc.com/d{i}" for i in range(20)]
                for url in urls:
                    await d0.fetch(url, size=512)
                await asyncio.sleep(0.1)  # let DIRUPDATEs land
                for url in urls:
                    await d1.fetch(url, size=512)
                copies = sum(
                    len(cached_urls(p)) for p in cluster.proxies
                )
                remote_hits = sum(
                    p.stats.remote_hits for p in cluster.proxies
                )
            return copies, remote_hits, len(urls)

        copies, remote_hits, n = run(scenario("single-copy"))
        assert remote_hits > 0
        assert copies == n  # discovery without duplication
        copies, remote_hits, n = run(scenario("summary"))
        assert remote_hits > 0
        assert copies > n  # summary re-caches remote hits locally


class TestMembershipChange:
    def test_join_rebalances_and_newcomer_serves(self):
        async def scenario():
            async with ProxyCluster(
                num_proxies=2,
                mode=ProxyMode.NO_ICP,
                cache_capacity=4 * 1024 * 1024,
                base_config=CARP_CONFIG,
            ) as cluster:
                d0 = cluster.driver_for(0)
                urls = [f"http://join.com/d{i}" for i in range(30)]
                for url in urls:
                    await d0.fetch(url, size=512)
                before = [p.stats.placement_rebalances for p in cluster.proxies]
                assert before == [0, 0]
                newcomer = await cluster.add_proxy()
                stats = [p.stats for p in cluster.proxies[:2]]
                invalidated = sum(
                    s.placement_entries_invalidated for s in stats
                )
                # Everything displaced onto the newcomer was dropped at
                # the old owner; replaying re-fetches it exactly once
                # and stores it at the newcomer.
                for url in urls:
                    await d0.fetch(url, size=512)
                copies = sum(
                    len(cached_urls(p)) for p in cluster.proxies
                )
                members = sorted(newcomer.placement.members)
                rebalances = [s.placement_rebalances for s in stats]
                newcomer_holdings = len(cached_urls(newcomer))
                registry_count = cluster.proxies[0].registry.counter(
                    "placement_rebalances_total"
                ).value
            return (
                invalidated,
                copies,
                len(urls),
                members,
                rebalances,
                newcomer_holdings,
                registry_count,
            )

        (
            invalidated,
            copies,
            n,
            members,
            rebalances,
            newcomer_holdings,
            registry_count,
        ) = run(scenario())
        assert members == ["proxy0", "proxy1", "proxy2"]
        assert rebalances == [1, 1]
        assert registry_count >= 1
        assert invalidated > 0
        # The single-copy invariant survives the join.
        assert copies == n
        assert newcomer_holdings == invalidated

    def test_graceful_leave_displaces_nothing(self):
        """Rendezvous hashing only moves keys *from* the departed
        member, so survivors invalidate nothing on a clean leave."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.NO_ICP,
                cache_capacity=4 * 1024 * 1024,
                base_config=CARP_CONFIG,
            ) as cluster:
                d0 = cluster.driver_for(0)
                for i in range(30):
                    await d0.fetch(f"http://leave.com/d{i}", size=512)
                held_before = [
                    len(cached_urls(p)) for p in cluster.proxies[:2]
                ]
                await cluster.remove_proxy(2)
                stats = [p.stats for p in cluster.proxies]
                held_after = [
                    len(cached_urls(p)) for p in cluster.proxies
                ]
            return held_before, held_after, stats

        held_before, held_after, stats = run(scenario())
        assert all(s.placement_rebalances == 1 for s in stats)
        assert all(s.placement_entries_invalidated == 0 for s in stats)
        assert held_after == held_before


class TestFailover:
    def test_killed_peer_fails_over_without_5xx(self):
        """Kill one proxy mid-replay without telling anyone: requests
        owned by it must fail over (origin or survivor) with no error
        surfaced to clients, and the survivors must rebalance."""

        async def scenario():
            async with ProxyCluster(
                num_proxies=3,
                mode=ProxyMode.NO_ICP,
                cache_capacity=4 * 1024 * 1024,
                base_config=CARP_CONFIG,
            ) as cluster:
                d0 = cluster.driver_for(0)
                urls = [f"http://kill.com/d{i}" for i in range(36)]
                for url in urls[:18]:
                    await d0.fetch(url, size=512)
                # Crash proxy2: drop it from the harness so teardown
                # won't double-stop it, and stop it without notifying
                # the survivors -- they must discover the death from
                # failed forwards.
                dead = cluster.proxies.pop(2)
                cluster.num_proxies = 2
                await dead.stop()
                for url in urls:  # replay everything, misses included
                    await d0.fetch(url, size=512)
                report = d0.report
                stats = [p.stats for p in cluster.proxies]
                members = sorted(cluster.proxies[0].placement.members)
                invalidated = cluster.proxies[0].registry.counter(
                    "placement_entries_invalidated_total"
                ).value
            return report, stats, members, invalidated

        report, stats, members, invalidated = run(scenario())
        # No 5xx reached the client: every fetch returned a 200 body.
        assert report.errors == 0
        assert report.requests == 18 + 36
        # The dead peer was discovered and retired from the ring.
        assert members == ["proxy0", "proxy1"]
        assert stats[0].peer_forward_failures >= 1
        assert stats[0].placement_rebalances >= 1
        assert invalidated >= 0
