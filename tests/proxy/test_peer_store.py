"""The proxy's peer-summary store against one plain copy per peer.

No sockets: random streams of DIRUPDATE, SetDirUpdate and DIGEST
datagrams go straight into ``_on_datagram``, mixed with lost updates,
stale old-geometry deltas, sender resizes and membership changes
(``reset_peer``, ``add_peer``, ``remove_peer``).  After every step
``_candidate_peers(url)`` must name, in peer order, exactly the peers
whose reference copy -- a ``BloomFilter`` or a ``set``, initialized by
the first update and replaced by a digest, as Section VI-B describes --
says the URL may be there, and the proxy must have rejected exactly the
updates the reference rejects.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.core.hashing import MD5HashFamily, md5_digest
from repro.protocol.wire import DigestChunk, DirUpdate, decode_message
from repro.proxy.config import PeerAddress, ProxyConfig, ProxyMode
from repro.proxy.server import SummaryCacheProxy
from repro.summaries import SummaryConfig, SummaryNode, codec
from repro.urlutil import server_of

URLS = [f"http://h{i % 4}.store.net/d{i}" for i in range(16)]
PEERS = [
    PeerAddress(f"p{i}", "127.0.0.1", http_port=1, icp_port=2000 + i)
    for i in range(5)
]
#: 64-bit Bloom filters at first, so the peers' bits collide.
CAPACITY = 64 * 1024
MAX_BITS = 1024
#: Small datagrams: a digest travels as several chunks.
MTU = 100
SET_KEYS = {"exact-directory": md5_digest, "server-name": server_of}

steps = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert",
                "evict",
                "publish",
                "lose",
                "resize",
                "stale",
                "reset",
                "remove",
                "add",
            ]
        ),
        st.integers(0, len(PEERS) - 1),
        st.integers(0, len(URLS) - 1),
    ),
    max_size=60,
)


class Receiver:
    """What the proxy should hold: its peers in order, one copy each."""

    def __init__(self, kind, members):
        self.kind = kind
        self.order = list(members)
        self.copies = {}
        self.rejects = 0

    def deliver(self, name, kind, geometry, records):
        """One (Set)DirUpdate from *name*: lazily initialize, or reject."""
        if name not in self.order:
            return
        copy = self.copies.get(name)
        if kind != self.kind or (
            copy is not None and self.geometry(copy) != geometry
        ):
            self.rejects += 1
            return
        if copy is None:
            copy = self.copies[name] = self.empty(geometry)
        if isinstance(copy, BloomFilter):
            copy.apply_flips(records)
        else:
            added, removed = records
            copy.difference_update(removed)
            copy.update(added)

    def replace(self, name, whole: BloomFilter):
        """A completed digest from *name* becomes its copy."""
        if name in self.order:
            self.copies[name] = whole.copy()

    def empty(self, geometry):
        if self.kind != "bloom":
            return set()
        num_bits, spec = geometry
        return BloomFilter(num_bits, MD5HashFamily.from_spec(*spec))

    @staticmethod
    def geometry(copy):
        if isinstance(copy, BloomFilter):
            return copy.num_bits, copy.hash_family.spec()
        return ()

    def candidates(self, url):
        names = []
        for name in self.order:
            copy = self.copies.get(name)
            if copy is None:
                continue
            if isinstance(copy, BloomFilter):
                held = copy.may_contain(url)
            else:
                held = SET_KEYS[self.kind](url) in copy
            if held:
                names.append(name)
        return names


def run(kind, ops):
    config = ProxyConfig(
        summary=SummaryConfig(kind=kind, load_factor=8),
        mode=ProxyMode.SC_ICP,
    )
    proxy = SummaryCacheProxy(config, ("127.0.0.1", 9))
    proxy.set_peers(PEERS[:3])
    receiver = Receiver(kind, [p.name for p in PEERS[:3]])
    senders = [SummaryNode(config.summary, CAPACITY) for _ in PEERS]
    held = [set() for _ in PEERS]

    def send(peer, message):
        proxy._on_datagram(message.encode(), peer.icp_addr)
        decoded = decode_message(message.encode())
        if isinstance(decoded, DirUpdate):
            geometry = (
                decoded.bit_array_size,
                (decoded.function_num, decoded.function_bits),
            )
            receiver.deliver(peer.name, "bloom", geometry, decoded.flips)
        elif not isinstance(decoded, DigestChunk):
            records = decoded.added, decoded.removed
            if kind == "server-name":
                records = tuple(
                    [r.decode("utf-8") for r in side] for side in records
                )
            sender_kind = codec.representation_kind(decoded.representation)
            receiver.deliver(peer.name, sender_kind, (), records)

    for action, index, url_index in ops:
        peer, node, url = PEERS[index], senders[index], URLS[url_index]
        if action == "insert" and url not in held[index]:
            node.on_insert(url)
            held[index].add(url)
        elif action == "evict" and url in held[index]:
            node.on_evict(url)
            held[index].discard(url)
        elif action in ("publish", "lose"):
            delta = node.publish(0.0)
            if action == "publish":
                for message in codec.delta_messages(node.local, delta, mtu=MTU):
                    send(peer, message)
        elif action == "resize" and kind == "bloom":
            # The sender doubles its filter and resyncs with a digest.
            if node.local.num_bits < MAX_BITS:
                node.rebuild(sorted(held[index]), 0.0)
            for chunk in codec.whole_summary_messages(node.local, mtu=MTU):
                send(peer, chunk)
            receiver.replace(peer.name, node.local.counting_filter.snapshot())
        elif action == "stale" and kind == "bloom":
            # A delta cut for the sender's geometry before its last
            # resize, arriving late.
            num_bits, spec = node.local.geometry
            old = max(num_bits // 2, 1)
            send(peer, DirUpdate(*spec, old, flips=((url_index % old, True),)))
        elif action == "reset":
            proxy.reset_peer(peer.icp_addr)
            receiver.copies.pop(peer.name, None)
        elif action == "remove":
            proxy.remove_peer(peer.name)
            if peer.name in receiver.order:
                receiver.order.remove(peer.name)
                receiver.copies.pop(peer.name, None)
        elif action == "add":
            proxy.add_peer(peer)
            if peer.name not in receiver.order:
                receiver.order.append(peer.name)
        for probe in URLS:
            names = [s.address.name for s in proxy._candidate_peers(probe)]
            assert names == receiver.candidates(probe), (action, probe)
        assert proxy.stats.dirupdate_rejects == receiver.rejects


@pytest.mark.parametrize("kind", ["bloom", "exact-directory", "server-name"])
@given(steps)
@settings(max_examples=30, deadline=None)
def test_candidates_match_a_copy_per_peer(kind, ops):
    run(kind, ops)


def test_stale_resize_and_membership_in_one_story():
    """A fixed sequence through every path the random one may miss."""
    run(
        "bloom",
        [
            ("insert", 1, 1),
            ("publish", 1, 0),
            ("insert", 0, 4),
            ("publish", 0, 0),
            # Re-initialized beside peer 1's copy of one geometry: the
            # copy holds only what arrives after the reset.
            ("reset", 0, 0),
            ("insert", 0, 7),
            ("publish", 0, 0),
            ("insert", 0, 1),
            ("publish", 0, 0),
            ("resize", 0, 0),
            ("stale", 0, 3),
            ("insert", 0, 2),
            ("publish", 0, 0),
            ("reset", 0, 0),
            ("stale", 0, 5),
            ("resize", 0, 0),
            ("remove", 1, 0),
            ("add", 4, 0),
            ("insert", 4, 6),
            ("publish", 4, 0),
            ("add", 1, 0),
            ("insert", 1, 6),
            ("publish", 1, 0),
        ],
    )
