"""The rendezvous hash ring: deterministic owner/replica derivation.

CARP's related-work framing in the paper -- "divides URL-space among an
array of loosely coupled proxy servers" -- needs a membership-stable
assignment: adding or removing one proxy may move keys only to or from
that proxy, never between survivors.  Highest-random-weight (rendezvous)
hashing gives exactly that: every member scores every key independently
and the highest score owns the key, so a membership change only touches
the keys the changed member wins or loses.

Scores are derived from the URL's **interned MD5 digest** (the one
:mod:`repro.core.position_cache` already memoizes for the summaries and
the wire codec) rather than by re-hashing the URL string per member:
the digest's low 64 bits -- bits 0..63 of the Section VI-A stream --
are the key value, combined with each member's precomputed point by an
integer mixer.  Deriving the owner of a URL therefore costs one
(usually memoized) MD5 plus ``len(members)`` multiplications, and a
live proxy and the simulator agree bit-for-bit on every assignment.

Replication generalizes ownership: the **replica set** of a key is the
top-``replication`` members by score, so ``replicas[0]`` is the owner
and the remaining entries are the deterministic failover order.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence, Tuple, Union

from repro.core.hashing import md5_digest
from repro.errors import ConfigurationError

Key = Union[str, bytes]

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58_476D_1CE4_E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D0_49BB_1331_11EB) & _MASK64
    return x ^ (x >> 31)


def member_point(name: str) -> int:
    """The fixed 64-bit point of one member identity.

    Derived from the member name's MD5 so that independently configured
    proxies agree on every point without exchanging any state.
    """
    digest = hashlib.md5(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def key_value(digest: bytes) -> int:
    """The 64-bit key value of an interned 16-byte MD5 *digest*: bits
    0..63 of its big-endian stream, the digest's last eight bytes."""
    return int.from_bytes(digest[8:], "big")


def rendezvous_score(point: int, value: int) -> int:
    """Highest-random-weight score of one (member point, key value) pair."""
    return _mix64(point ^ _mix64(value))


class HashRing:
    """An immutable rendezvous ring over member identities.

    Parameters
    ----------
    members:
        Distinct member names (order is irrelevant: scores, not
        positions, decide ownership).
    replication:
        Size of each key's replica set, capped at ``len(members)``.

    The ring never mutates; membership changes go through
    :meth:`with_member` / :meth:`without_member`, which return new rings
    sharing the survivors' precomputed points.  The live mutation
    boundary is :class:`repro.placement.live.Placement` (sc-lint SC004
    keeps it that way).
    """

    __slots__ = ("_members", "_points", "_replication")

    def __init__(self, members: Sequence[str], replication: int = 1) -> None:
        names = tuple(members)
        if not names:
            raise ConfigurationError("a hash ring needs >= 1 member")
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"ring members must be distinct, got {names!r}"
            )
        if replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1, got {replication}"
            )
        self._members = names
        self._points: Dict[str, int] = {
            name: member_point(name) for name in names
        }
        self._replication = min(replication, len(names))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def members(self) -> Tuple[str, ...]:
        """The member names, in construction order."""
        return self._members

    @property
    def replication(self) -> int:
        """The effective replica-set size (capped at the member count)."""
        return self._replication

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: object) -> bool:
        return name in self._points

    def __repr__(self) -> str:
        return (
            f"HashRing(members={list(self._members)!r}, "
            f"replication={self._replication})"
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def owner(self, digest: bytes) -> str:
        """The member owning the key with MD5 *digest*."""
        value = _mix64(key_value(digest))
        best_score = -1
        best = self._members[0]
        for name in self._members:
            score = _mix64(self._points[name] ^ value)
            if score > best_score:
                best_score = score
                best = name
        return best

    def replicas(self, digest: bytes) -> Tuple[str, ...]:
        """The key's replica set: owner first, then failover order."""
        value = _mix64(key_value(digest))
        scored = sorted(
            self._members,
            key=lambda name: _mix64(self._points[name] ^ value),
            reverse=True,
        )
        return tuple(scored[: self._replication])

    def owner_of(self, key: Key) -> str:
        """Owner of *key*, via the interned digest of the position cache."""
        return self.owner(md5_digest(key))

    # ------------------------------------------------------------------
    # Membership (functional: new rings, never in-place mutation)
    # ------------------------------------------------------------------

    def with_member(self, name: str) -> "HashRing":
        """A ring with *name* added (error if already present)."""
        if name in self._points:
            raise ConfigurationError(f"member {name!r} already on the ring")
        return HashRing(self._members + (name,), self._replication)

    def without_member(self, name: str) -> "HashRing":
        """A ring with *name* removed (error if absent or last member)."""
        if name not in self._points:
            raise ConfigurationError(f"member {name!r} is not on the ring")
        survivors = tuple(m for m in self._members if m != name)
        if not survivors:
            raise ConfigurationError(
                "cannot remove the last member of a ring"
            )
        return HashRing(survivors, self._replication)


#: Memoized rings for the index-named arrays ``carp_owner`` routes over
#: (the simulator asks for the same ``num_proxies`` millions of times).
_INDEX_RINGS: Dict[int, HashRing] = {}


def _index_ring(num_proxies: int) -> HashRing:
    ring = _INDEX_RINGS.get(num_proxies)
    if ring is None:
        if num_proxies < 1:
            raise ConfigurationError(
                f"num_proxies must be >= 1, got {num_proxies}"
            )
        ring = HashRing([str(i) for i in range(num_proxies)])
        _INDEX_RINGS[num_proxies] = ring
    return ring


def carp_owner(url: Key, num_proxies: int) -> int:
    """Rendezvous owner of *url* in an array of *num_proxies* proxies.

    Routes on the interned MD5 digest of the URL (one hash per URL,
    shared with the summaries via the position cache) instead of
    re-hashing ``"{proxy}|{url}"`` per array member.  Member identities
    are the decimal indices ``"0" .. "N-1"``, so the same assignment is
    reproducible from any process that knows the array size.
    """
    return int(_index_ring(num_proxies).owner(md5_digest(url)))
