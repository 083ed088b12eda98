"""One proxy's protocol decisions, shared by the DES and the live proxy.

Per request: which peers a local miss asks (*candidates*), how their
replies resolve it (*outcome*), whether the requester keeps what it
fetched (*keeps*), and whether it publishes summaries (*summaries*).
:func:`repro.proxy.config.scheme_for` derives the :class:`Scheme`.
Nothing here awaits, sends, reads a clock or holds a cache.  The
replay engine's hot loop keeps an inlined copy, pinned to this one by
``tests/protocol/test_core.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.summaries import PeerSummaries

#: How a candidate round resolved (:meth:`Scheme.outcome`).
REMOTE_HIT = "remote_hit"
STALE = "stale"  # the asked peers held only stale copies
FALSE_HIT = "false_hit"  # the summaries promised a copy nobody held
NO_HOLDER = "no_holder"  # every peer was asked and none held it
NO_CANDIDATES = "no_candidates"


@dataclass(frozen=True)
class Scheme:
    """Which decisions a proxy makes.

    *ask* is who a local miss asks: ``"none"``, ``"all"`` (plain ICP) or
    ``"summaries"`` (SC-ICP, the only one that publishes summaries).
    Without *caches_remote_hits* a remote hit stays at the serving peer.
    """

    ask: str = "none"
    caches_remote_hits: bool = True

    @property
    def summaries(self) -> bool:
        """Whether this proxy publishes (and resizes) its summary."""
        return self.ask == "summaries"

    def candidates(self, url: str, peers: PeerSummaries, everyone: int) -> int:
        """The peers to ask about *url*, as a mask within *everyone* (the
        peers this proxy may ask; *peers* holds their summary copies)."""
        if not everyone or self.ask == "none":
            return 0
        if self.ask == "all":
            return everyone
        return peers.probe(peers.key_of(url)) & everyone

    def outcome(self, asked: int, held: bool, stale: bool = False) -> str:
        """How a round that asked *asked* peers resolved, given whether
        one *held* a fresh copy and whether one held a *stale* one."""
        if held:
            return REMOTE_HIT
        if not asked:
            return NO_CANDIDATES
        if stale:
            return STALE
        return FALSE_HIT if self.summaries else NO_HOLDER

    def keeps(self, remote: bool) -> bool:
        """Whether the requester caches what it fetched (*remote*: a peer
        served it); single-copy cooperation leaves it at the peer."""
        return self.caches_remote_hits or not remote
