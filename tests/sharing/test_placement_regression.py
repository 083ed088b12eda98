"""Pin the placement-routed simulator outputs bit-for-bit.

The hash-routing math moved from ``repro.sharing.carp`` into
``repro.placement.ring`` and now routes on the interned MD5 digest of
the URL (one hash per URL, shared with the summaries) instead of
re-hashing ``"{proxy}|{url}"`` per array member.  These tests freeze
the resulting owner assignments and the simulator outputs so any later
change to the ring math is a deliberate, visible break rather than a
silent drift between the simulator and the live proxy data plane.
"""

from __future__ import annotations

from repro.placement import HashRing, carp_owner
from repro.sharing import (
    simulate_carp,
    simulate_simple_sharing,
    simulate_single_copy_sharing,
)

PINNED_URLS = [
    f"http://server{i % 7}.example.com/path/{i}" for i in range(12)
]

#: Owner assignments frozen at the digest-routed implementation.
PINNED_OWNERS = {
    2: [1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0],
    4: [1, 0, 0, 0, 1, 3, 3, 3, 2, 2, 3, 0],
    8: [1, 6, 0, 5, 1, 5, 5, 3, 4, 2, 3, 4],
}


def test_carp_owner_assignments_are_pinned():
    for num_proxies, owners in PINNED_OWNERS.items():
        assert [
            carp_owner(url, num_proxies) for url in PINNED_URLS
        ] == owners


def test_carp_owner_matches_index_named_ring():
    ring = HashRing([str(i) for i in range(4)])
    for url in PINNED_URLS:
        assert carp_owner(url, 4) == int(ring.owner_of(url))


def test_simulate_carp_results_are_pinned(small_trace):
    r = simulate_carp(small_trace, 4, 256 * 1024)
    assert r.requests == 4000
    assert r.hits == 3158
    assert r.local_routed == 929
    assert r.remote_routed == 3071
    assert r.per_proxy_requests == [1190, 1056, 861, 893]


def test_simulate_single_copy_results_are_pinned(small_trace):
    r = simulate_single_copy_sharing(small_trace, 4, 256 * 1024)
    assert r.requests == 4000
    assert r.local_hits == 1511
    assert r.remote_hits == 1649
    assert r.remote_stale_hits == 13
    assert r.bytes_hit == 3123221


def test_simulate_simple_sharing_results_are_pinned(small_trace):
    r = simulate_simple_sharing(small_trace, 4, 256 * 1024)
    assert r.requests == 4000
    assert r.local_hits == 2547
    assert r.remote_hits == 571
    assert r.remote_stale_hits == 20
    assert r.bytes_hit == 3096210
