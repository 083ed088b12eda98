"""The proxy's peer-summary store against one plain copy per peer.

No sockets: random streams of DIRUPDATE, SetDirUpdate and DIGEST
datagrams go straight into ``_on_datagram``, mixed with lost updates,
stale old-geometry deltas, sender resizes and membership changes
(``reset_peer``, ``add_peer``, ``remove_peer``) and hostile datagrams
that no message constructor builds (an unusable hash family, a zero-bit
array, a server name that is not UTF-8).  After every step
``_candidate_peers(url)`` must name, in peer order, exactly the peers
whose reference copy -- a ``BloomFilter`` or a ``set``, initialized by
the first update and replaced by a digest, as Section VI-B describes --
says the URL may be there, each peer's copy must have the reference's
geometry, and the proxy must have rejected exactly the updates the
reference rejects.  One sender's filter spans several MTU-sized digest
chunks, and a copy must not change until the last chunk arrives.
"""

from __future__ import annotations

import struct
import tracemalloc
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bloom import BloomFilter
from repro.core.hashing import MAX_NUM_FUNCTIONS, MD5HashFamily, md5_digest
from repro.protocol.wire import (
    ICP_HEADER_SIZE,
    REPR_SERVER_NAME,
    DigestChunk,
    DirUpdate,
    SetDirUpdate,
    decode_message,
)
from repro.proxy.config import PeerAddress, ProxyConfig, ProxyMode
from repro.proxy.server import SummaryCacheProxy
from repro.summaries import SummaryConfig, SummaryNode, codec
from repro.urlutil import server_of
from tests.conftest import plain_copy

URLS = [f"http://h{i % 4}.store.net/d{i}" for i in range(16)]
PEERS = [
    PeerAddress(f"p{i}", "127.0.0.1", http_port=1, icp_port=2000 + i)
    for i in range(5)
]
CAPACITY = 64 * 1024
#: 8-bit Bloom filters at first, for one document, so the peers' bits
#: collide and a sender outgrows its filter at 3, 5 and 9 held
#: documents ...
SMALL = 8 * 1024
#: ... except peer 2's: 32,768 bits, a digest of three 1,364-byte chunks.
SENDER_CAPACITY = [SMALL, SMALL, 512 * CAPACITY, SMALL, SMALL]
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
                "hostile",
            ]
        ),
        st.integers(0, len(PEERS) - 1),
        st.integers(0, len(URLS) - 1),
    ),
    max_size=60,
)


def rewritten(message, fields: str, *values) -> bytes:
    """*message*'s datagram with the leading fields of its extension
    header (struct format *fields*) rewritten to *values*."""
    data = bytearray(message.encode())
    struct.pack_into(fields, data, ICP_HEADER_SIZE, *values)
    return bytes(data)


#: Datagrams a broken or hostile peer may send, by what is wrong, each
#: with whether the receiver counts it as a rejected update (a header
#: that decodes but names no usable geometry) or drops it as garbage
#: (a header or record the wire format forbids).  A DIGEST and a
#: DIRUPDATE with the same header meet the same fate.
HOSTILE = [
    # Function_Bits 65 fits the header, but no MD5 slice is that wide.
    (
        [
            DigestChunk(4, 65, 8, 0, 1, b"\x01").encode(),
            DirUpdate(4, 65, 8, flips=((1, True),)).encode(),
        ],
        True,
    ),
    # Function_Num 65,535 fits the header, but a probe of the copy
    # would read 65,535 positions.
    (
        [
            DigestChunk(0xFFFF, 32, 8, 0, 1, b"\x01").encode(),
            DirUpdate(0xFFFF, 32, 8, flips=((1, True),)).encode(),
        ],
        True,
    ),
    # 2**31 bits, the header's ceiling: above the receiver's bound.
    (
        [
            DigestChunk(4, 32, 2**31, 0, 2**28, b"\x01").encode(),
            DirUpdate(4, 32, 2**31, flips=((1, True),)).encode(),
        ],
        True,
    ),
    # A zero-bit array.
    (
        [
            rewritten(DigestChunk(4, 32, 8, 0, 1, b""), "!HHIII", 4, 32, 0, 0, 0),
            rewritten(DirUpdate(4, 32, 8), "!HHI", 4, 32, 0),
        ],
        False,
    ),
    # A server name that is not UTF-8.
    (
        [
            SetDirUpdate(REPR_SERVER_NAME, added=(b"ab",)).encode()[:-2]
            + b"\xff\xfe",
        ],
        False,
    ),
]


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
    senders = [SummaryNode(config.summary, c) for c in SENDER_CAPACITY]
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

    def check(action):
        for probe in URLS:
            names = [s.address.name for s in proxy._candidate_peers(probe)]
            assert names == receiver.candidates(probe), (action, probe)
        for peer in PEERS:
            copy = receiver.copies.get(peer.name)
            expected = None if copy is None else receiver.geometry(copy)
            assert proxy.peer_geometry(peer.icp_addr) == expected, action
        assert proxy.stats.dirupdate_rejects == receiver.rejects

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
                for message in codec.delta_messages(node.local, delta):
                    send(peer, message)
        elif action == "resize" and kind == "bloom":
            # The sender doubles a filter it outgrew and resyncs with a
            # digest; the copy stays as it was until the last chunk
            # completes it.
            node.grow(sorted(held[index]), 0.0)
            *head, last = codec.whole_summary_messages(node.local)
            for chunk in head:
                send(peer, chunk)
                check("digest chunk")
            send(peer, last)
            receiver.replace(peer.name, plain_copy(node.local))
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
        elif action == "hostile":
            datagrams, counted = HOSTILE[url_index % len(HOSTILE)]
            for datagram in datagrams:
                proxy._on_datagram(datagram, peer.icp_addr)
                if counted and peer.name in receiver.order:
                    receiver.rejects += 1
        check(action)


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
            # Five documents outgrow the 16 bits peer 0 grew to above.
            ("insert", 0, 3),
            ("resize", 0, 0),
            ("remove", 1, 0),
            ("add", 4, 0),
            ("insert", 4, 6),
            ("publish", 4, 0),
            ("add", 1, 0),
            ("insert", 1, 6),
            ("publish", 1, 0),
            # Peer 2's digests travel as three chunks.
            ("insert", 2, 8),
            ("publish", 2, 0),
            ("insert", 2, 9),
            ("resize", 2, 0),
            ("stale", 2, 9),
            ("evict", 2, 8),
            ("publish", 2, 0),
            # Each kind of hostile datagram, from peers holding copies
            # and from one the proxy does not know.
            ("hostile", 2, 0),
            ("hostile", 2, 1),
            ("hostile", 2, 2),
            ("hostile", 2, 3),
            ("hostile", 2, 4),
            ("hostile", 0, 0),
            ("hostile", 0, 1),
            ("hostile", 3, 0),
        ],
    )


def test_multi_chunk_digest_replaces_the_copy_on_its_last_chunk():
    """A digest of several datagrams, fed one chunk at a time through
    ``_on_datagram``, leaves the peer's copy and geometry as they were
    until its last chunk, then equals the sender's snapshot."""
    config = ProxyConfig(
        summary=SummaryConfig(kind="bloom", load_factor=8),
        mode=ProxyMode.SC_ICP,
    )
    proxy = SummaryCacheProxy(config, ("127.0.0.1", 9))
    peer = PEERS[0]
    proxy.set_peers([peer])
    # 8,192 bits for 1,024 documents, outgrown past 2,048 and doubled to
    # 16,384 bits: a digest of two datagrams.
    sender = SummaryNode(config.summary, 128 * CAPACITY)
    urls = [f"http://h{i % 7}.store.net/d{i}" for i in range(2100)]
    for url in urls[:100]:
        sender.on_insert(url)
    for message in codec.delta_messages(sender.local, sender.publish(0.0)):
        proxy._on_datagram(message.encode(), peer.icp_addr)
    before = proxy.peer_geometry(peer.icp_addr)
    held = [u for u in urls if proxy._candidate_peers(u)]
    assert before == (8192, (4, 32))
    assert set(urls[:100]) <= set(held)

    for url in urls[100:]:
        sender.on_insert(url)
    for url in urls[:50]:
        sender.on_evict(url)
    assert sender.grow(urls[50:], 0.0)
    chunks = codec.whole_summary_messages(sender.local)
    assert len(chunks) == 2
    for chunk in chunks[:-1]:
        proxy._on_datagram(chunk.encode(), peer.icp_addr)
        assert proxy.peer_geometry(peer.icp_addr) == before
        assert [u for u in urls if proxy._candidate_peers(u)] == held
    proxy._on_datagram(chunks[-1].encode(), peer.icp_addr)

    snapshot = plain_copy(sender.local)
    assert proxy.peer_geometry(peer.icp_addr) == (
        snapshot.num_bits,
        snapshot.hash_family.spec(),
    )
    expected = [u for u in urls if snapshot.may_contain(u)]
    assert [u for u in urls if proxy._candidate_peers(u)] == expected
    assert set(urls[50:]) <= set(expected)
    assert not set(urls[:50]) <= set(expected)


def test_a_huge_hash_family_is_rejected_and_probes_stay_fast():
    """A configured peer announcing ``Function_Num`` 65,535 in a
    DIRUPDATE or a DIGEST is rejected and counted, and neither the copy
    it holds nor the empty slot of a peer with none changes: every probe
    still reads one column per function of the family in use."""
    config = ProxyConfig(
        summary=SummaryConfig(kind="bloom", load_factor=8),
        mode=ProxyMode.SC_ICP,
    )
    proxy = SummaryCacheProxy(config, ("127.0.0.1", 9))
    holder, newcomer = PEERS[:2]
    proxy.set_peers([holder, newcomer])
    sender = SummaryNode(config.summary, CAPACITY)
    sender.on_insert(URLS[0])
    for message in codec.delta_messages(sender.local, sender.publish(0.0)):
        proxy._on_datagram(message.encode(), holder.icp_addr)
    held = proxy.peer_geometry(holder.icp_addr)
    assert held == (sender.local.num_bits, (4, 32))

    hostile = [
        DirUpdate(0xFFFF, 32, 8192, flips=((1, True),)).encode(),
        DigestChunk(0xFFFF, 32, 64, 0, 8, bytes(8)).encode(),
        DirUpdate(MAX_NUM_FUNCTIONS + 1, 32, 64).encode(),
    ]
    for peer in (holder, newcomer):
        for datagram in hostile:
            proxy._on_datagram(datagram, peer.icp_addr)
    assert proxy.stats.dirupdate_rejects == 2 * len(hostile)
    assert proxy.peer_geometry(holder.icp_addr) == held
    assert proxy.peer_geometry(newcomer.icp_addr) is None

    assert all(len(proxy._peer_summaries.key_of(u)) == 4 for u in URLS)
    start = perf_counter()
    found = [[s.address.name for s in proxy._candidate_peers(u)] for u in URLS]
    assert perf_counter() - start < 1.0
    assert found[0] == [holder.name]


@pytest.mark.parametrize(
    "message",
    [
        DirUpdate(4, 32, 2**31, flips=((1, True),)),
        DigestChunk(4, 32, 2**31, 0, 2**28, bytes(1024)),
    ],
    ids=["dirupdate", "digest"],
)
def test_an_array_over_the_bound_is_rejected_before_it_is_held(message):
    """A configured peer announcing 2**31 bits, the header's ceiling, in
    a DIRUPDATE or a DIGEST's first chunk is rejected and counted, the
    copy it holds and the empty slot of a peer with none stay as they
    were, and the proxy allocates under 1 MiB doing so: no column, and
    no buffered chunk."""
    config = ProxyConfig(
        summary=SummaryConfig(kind="bloom", load_factor=8),
        mode=ProxyMode.SC_ICP,
    )
    proxy = SummaryCacheProxy(config, ("127.0.0.1", 9))
    holder, newcomer = PEERS[:2]
    proxy.set_peers([holder, newcomer])
    sender = SummaryNode(config.summary, CAPACITY)
    sender.on_insert(URLS[0])
    for update in codec.delta_messages(sender.local, sender.publish(0.0)):
        proxy._on_datagram(update.encode(), holder.icp_addr)
    held = proxy.peer_geometry(holder.icp_addr)
    datagram = message.encode()

    tracemalloc.start()
    try:
        for peer in (holder, newcomer):
            proxy._on_datagram(datagram, peer.icp_addr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert proxy.stats.dirupdate_rejects == 2
    assert proxy.peer_geometry(holder.icp_addr) == held
    assert proxy.peer_geometry(newcomer.icp_addr) is None
    assert [s.address.name for s in proxy._candidate_peers(URLS[0])] == [
        holder.name
    ]
