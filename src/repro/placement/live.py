"""Live membership: the one place the ring is allowed to change.

A proxy holds one :class:`Placement` for its cluster view.  Membership
changes (peer join, peer leave, failure detection) rebuild the
immutable :class:`~repro.placement.ring.HashRing` and report which of
the holder's cached URLs were **displaced** -- keys the holder was a
replica for under the old ring but is not under the new one -- so the
caller can migrate or invalidate them.  sc-lint SC004 confines ring
mutation to this module: everything outside ``repro.placement`` goes
through :class:`Placement`, never through ring internals.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.core.hashing import md5_digest
from repro.placement.policy import CooperationPolicy
from repro.placement.ring import HashRing


def displaced_keys(
    before: HashRing,
    after: HashRing,
    holder: str,
    urls: Iterable[str],
) -> List[str]:
    """The *urls* *holder* stored under *before* but no longer replicates.

    *urls* are the holder's cached documents; each one's digest comes
    from the URL memo (:func:`~repro.core.hashing.md5_digest`): a hit
    while the URL's line is held, one MD5 once it aged out.  By the
    rendezvous property a **leave** never displaces a survivor's keys
    (ownership only flows *from* the removed member), while a **join**
    displaces exactly the keys the newcomer wins.
    """
    displaced = []
    for url in urls:
        digest = md5_digest(url)
        if holder in before.replicas(digest) and (
            holder not in after.replicas(digest)
        ):
            displaced.append(url)
    return displaced


class Placement:
    """One proxy's mutable view of cluster-wide object placement.

    Parameters
    ----------
    self_name:
        The holder's own member identity (always on the ring).
    peers:
        The other members' identities.
    policy:
        The cooperation policy; placement routing only applies when
        ``policy.routes_by_owner``.
    replication:
        Replica-set size handed to the ring.
    """

    __slots__ = (
        "_self_name", "_ring", "_policy", "_replication", "_version",
    )

    def __init__(
        self,
        self_name: str,
        peers: Iterable[str] = (),
        policy: CooperationPolicy = CooperationPolicy.SUMMARY,
        replication: int = 1,
    ) -> None:
        members = [self_name]
        members.extend(p for p in peers if p != self_name)
        self._self_name = self_name
        self._replication = replication
        self._ring = HashRing(members, replication)
        self._policy = policy
        self._version = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def self_name(self) -> str:
        """The holder's member identity."""
        return self._self_name

    @property
    def policy(self) -> CooperationPolicy:
        """The cooperation policy in force."""
        return self._policy

    @property
    def ring(self) -> HashRing:
        """The current (immutable) ring -- read-only use expected."""
        return self._ring

    @property
    def members(self) -> Tuple[str, ...]:
        """Current member identities."""
        return self._ring.members

    @property
    def version(self) -> int:
        """Monotonic membership-change counter.

        Bumped every time the ring actually changes.  Async callers
        that act on a routing decision *after* an ``await`` (e.g. the
        proxy's owner-forward path deciding to evict a peer because a
        forward failed) must re-check the version they routed under:
        a bump means the verdict may describe a member set that no
        longer exists.
        """
        return self._version

    def owner(self, digest: bytes) -> str:
        """Owner identity of the key with *digest*."""
        return self._ring.owner(digest)

    def replicas(self, digest: bytes) -> Tuple[str, ...]:
        """Replica set (owner first) of the key with *digest*."""
        return self._ring.replicas(digest)

    def is_local(self, digest: bytes) -> bool:
        """Whether the holder belongs to the key's replica set."""
        return self._self_name in self._ring.replicas(digest)

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------

    def add_member(self, name: str, urls: Iterable[str] = ()) -> List[str]:
        """Admit *name*; returns the holder's *urls* the newcomer displaced.

        No-op (empty list) when *name* is already a member.
        """
        if name in self._ring:
            return []
        before = self._ring
        after = before.with_member(name)
        displaced = displaced_keys(before, after, self._self_name, urls)
        self._ring = after
        self._version += 1
        return displaced

    def remove_member(self, name: str, urls: Iterable[str] = ()) -> List[str]:
        """Retire *name*; returns the holder's *urls* displaced by the change.

        By the rendezvous property this is always an empty list for a
        genuine leave (survivors only *gain* keys); the scan is kept so
        the join and leave paths stay symmetric and provably so in
        tests.  No-op when *name* is not a member or is the holder.
        """
        if name == self._self_name or name not in self._ring:
            return []
        before = self._ring
        after = before.without_member(name)
        displaced = displaced_keys(before, after, self._self_name, urls)
        self._ring = after
        self._version += 1
        return displaced
