"""Units for the rendezvous ring and the live placement wrapper."""

from __future__ import annotations

import random

import pytest

from repro.core.hashing import md5_digest
from repro.core.position_cache import positions_from_stream
from repro.errors import ConfigurationError
from repro.placement import (
    CooperationPolicy,
    HashRing,
    Placement,
    carp_owner,
    displaced_keys,
    key_value,
    member_point,
    rendezvous_score,
)

URLS = [f"http://server{i % 5}.example.com/doc/{i}" for i in range(400)]


class TestPrimitives:
    def test_member_point_is_deterministic_and_64_bit(self):
        p = member_point("proxy0")
        assert p == member_point("proxy0")
        assert 0 <= p < 1 << 64
        assert member_point("proxy0") != member_point("proxy1")

    def test_key_value_is_hash_position_zero_of_the_digest_stream(self):
        # One 64-bit Section VI-A function over the digest, table 2**64.
        rng = random.Random(7)
        for _ in range(1_000):
            digest = rng.randbytes(16)
            stream = int.from_bytes(digest, "big")
            assert key_value(digest) == positions_from_stream(
                stream, 1, 64, 2**64
            )[0]

    def test_key_value_comes_from_the_interned_digest(self):
        digest = md5_digest("http://a.com/1")
        v = key_value(digest)
        assert 0 <= v < 1 << 64
        # bits 0..63 of the digest stream, not a re-hash of the URL
        assert v == key_value(md5_digest("http://a.com/1"))

    def test_rendezvous_score_mixes_both_inputs(self):
        s = rendezvous_score(member_point("a"), 12345)
        assert s != rendezvous_score(member_point("b"), 12345)
        assert s != rendezvous_score(member_point("a"), 54321)


class TestHashRing:
    def test_owner_is_deterministic_and_a_member(self):
        ring = HashRing(["a", "b", "c"])
        for url in URLS:
            owner = ring.owner_of(url)
            assert owner in ring.members
            assert owner == ring.owner_of(url)

    def test_owner_agrees_with_digest_route(self):
        ring = HashRing(["a", "b", "c"])
        for url in URLS[:50]:
            assert ring.owner(md5_digest(url)) == ring.owner_of(url)

    def test_replicas_owner_first_distinct_and_sized(self):
        ring = HashRing(["a", "b", "c", "d"], replication=3)
        for url in URLS[:100]:
            reps = ring.replicas(md5_digest(url))
            assert len(reps) == 3
            assert len(set(reps)) == 3
            assert reps[0] == ring.owner_of(url)

    def test_replication_capped_at_member_count(self):
        ring = HashRing(["a", "b"], replication=5)
        assert ring.replication == 2

    def test_member_order_does_not_matter(self):
        fwd = HashRing(["a", "b", "c"])
        rev = HashRing(["c", "b", "a"])
        for url in URLS[:100]:
            assert fwd.owner_of(url) == rev.owner_of(url)

    def test_join_only_moves_keys_to_the_newcomer(self):
        before = HashRing(["a", "b", "c"])
        after = before.with_member("d")
        for url in URLS:
            old, new = before.owner_of(url), after.owner_of(url)
            if old != new:
                assert new == "d"

    def test_leave_only_moves_keys_from_the_departed(self):
        before = HashRing(["a", "b", "c", "d"])
        after = before.without_member("d")
        for url in URLS:
            old, new = before.owner_of(url), after.owner_of(url)
            if old != new:
                assert old == "d"

    def test_balance_over_many_keys(self):
        ring = HashRing([f"p{i}" for i in range(4)])
        counts = {m: 0 for m in ring.members}
        for i in range(4000):
            counts[ring.owner_of(f"http://balance.test/{i}")] += 1
        assert min(counts.values()) > 700
        assert max(counts.values()) < 1300

    def test_validation_errors(self):
        with pytest.raises(ConfigurationError):
            HashRing([])
        with pytest.raises(ConfigurationError):
            HashRing(["a", "a"])
        with pytest.raises(ConfigurationError):
            HashRing(["a"], replication=0)
        ring = HashRing(["a", "b"])
        with pytest.raises(ConfigurationError):
            ring.with_member("a")
        with pytest.raises(ConfigurationError):
            ring.without_member("zz")
        with pytest.raises(ConfigurationError):
            HashRing(["solo"]).without_member("solo")
        with pytest.raises(ConfigurationError):
            carp_owner("http://x/", 0)


class TestPlacement:
    def _owned(self, placement: Placement, n: int = 200):
        """The URLs the holder owns under the current ring."""
        return [
            u
            for u in URLS[:n]
            if placement.owner(md5_digest(u)) == placement.self_name
        ]

    def test_self_is_always_a_member(self):
        p = Placement("a", ["b", "c"])
        assert "a" in p.members
        p2 = Placement("a", ["a", "b"])  # tolerate self in the peer list
        assert sorted(p2.members) == ["a", "b"]

    def test_is_local_matches_replica_membership(self):
        p = Placement("a", ["b", "c"], replication=2)
        for url in URLS[:100]:
            d = md5_digest(url)
            assert p.is_local(d) == ("a" in p.replicas(d))

    def test_join_reports_displaced_keys_and_leave_reports_none(self):
        p = Placement("a", ["b", "c"])
        mine = self._owned(p)
        assert mine  # the fixture owns something
        displaced = p.add_member("d", mine)
        # Exactly the keys the newcomer now owns were displaced.
        assert displaced == [u for u in mine if p.owner(md5_digest(u)) == "d"]
        assert "d" in p.members
        survivors_keys = self._owned(p)
        assert p.remove_member("b", survivors_keys) == []
        assert "b" not in p.members

    def test_membership_noops(self):
        p = Placement("a", ["b"])
        assert p.add_member("b") == []
        assert p.remove_member("a") == []
        assert p.remove_member("ghost") == []

    def test_displaced_keys_helper_is_replica_aware(self):
        before = HashRing(["a", "b", "c"], replication=2)
        after = before.with_member("d")
        held = [u for u in URLS[:200] if "a" in before.replicas(md5_digest(u))]
        displaced = displaced_keys(before, after, "a", held)
        for url in held:
            expect = "a" not in after.replicas(md5_digest(url))
            assert (url in displaced) == expect


class TestCooperationPolicy:
    def test_parse_and_choices(self):
        assert CooperationPolicy.parse("carp") is CooperationPolicy.CARP
        assert (
            CooperationPolicy.parse(CooperationPolicy.SUMMARY)
            is CooperationPolicy.SUMMARY
        )
        assert CooperationPolicy.choices() == (
            "carp",
            "single-copy",
            "summary",
        )
        with pytest.raises(ConfigurationError):
            CooperationPolicy.parse("gossip")

    def test_policy_axes(self):
        assert CooperationPolicy.CARP.routes_by_owner
        assert not CooperationPolicy.SUMMARY.routes_by_owner
        assert not CooperationPolicy.SINGLE_COPY.routes_by_owner
        assert CooperationPolicy.SUMMARY.caches_remote_hits
        assert not CooperationPolicy.SINGLE_COPY.caches_remote_hits
        assert not CooperationPolicy.CARP.caches_remote_hits


class TestPlacementVersion:
    """The monotonic version counter guarding stale routing verdicts.

    The proxy's owner-forward path routes under one membership view,
    awaits the forward, and only evicts the owner if the view is
    unchanged (``_owner_path`` re-checks ``version``).  These pin the
    counter semantics that re-check relies on.
    """

    def test_starts_at_zero_and_bumps_on_change(self):
        p = Placement("a", ["b"])
        assert p.version == 0
        p.add_member("c")
        assert p.version == 1
        p.remove_member("c")
        assert p.version == 2

    def test_noop_changes_do_not_bump(self):
        p = Placement("a", ["b"])
        p.add_member("b")  # already a member
        p.remove_member("ghost")  # never a member
        p.remove_member("a")  # the holder itself: refused
        assert p.version == 0

    def test_stale_verdict_detectable_after_rejoin_race(self):
        # The race _owner_path had: route to owner b, await, b leaves
        # and rejoins (membership changed twice), the old "b is gone"
        # verdict must not evict the rejoined b.
        p = Placement("a", ["b"])
        routed_version = p.version
        p.remove_member("b")
        p.add_member("b")
        assert p.version != routed_version
        assert "b" in p.members
