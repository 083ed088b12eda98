"""Client, proxy, and origin processes of the simulated testbed.

The simulated proxy makes the prototype's protocol decisions through
the same core (:mod:`repro.protocol.core`: local cache -> peer
summaries / queries -> origin, then store and publish) but in
simulated time: every activity charges the proxy's FIFO CPU resource
with the cost model's service time, every message crosses the network
model's latency, and every packet increments netstat-style counters.

Clients are closed-loop: each issues its next request as soon as the
previous response arrives ("client processes issue requests with no
thinking time in between").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.cache import WebCache
from repro.core.hashing import md5_digest
from repro.errors import ConfigurationError
from repro.protocol.core import FALSE_HIT, NO_CANDIDATES, REMOTE_HIT, STALE
from repro.summaries import (
    PacketFillUpdatePolicy,
    PeerSummaries,
    SummaryConfig,
    SummaryNode,
    UpdatePolicy,
    slots_of,
)
from repro.summaries import codec
from repro.proxy.config import ProxyMode, scheme_for
from repro.sharing.messages import QUERY_MESSAGE_BYTES
from repro.simulation.costs import CostModel, CpuAccount
from repro.simulation.engine import Engine, Resource
from repro.simulation.network import NetworkModel, PacketCounters
from repro.traces.model import Request

#: Approximate HTTP request head size on the wire.
HTTP_REQUEST_BYTES = 200

#: Approximate HTTP response head size (body added separately).
HTTP_RESPONSE_HEAD_BYTES = 160


@dataclass
class SimProxyConfig:
    """Parameters of one simulated proxy."""

    mode: ProxyMode = ProxyMode.NO_ICP
    cache_capacity: int = 75 * 1024 * 1024  # the benchmark's 75 MB
    max_object_size: Optional[int] = 250 * 1024
    summary: SummaryConfig = field(default_factory=SummaryConfig)
    expected_doc_size: int = 8 * 1024
    #: When pending changes ship.  The default sends once they fill one
    #: MTU-sized DIRUPDATE (the Squid prototype's behaviour, Section
    #: VI-B); :class:`~repro.summaries.ThresholdUpdatePolicy` uses the
    #: new-document fraction instead.
    update_policy: UpdatePolicy = PacketFillUpdatePolicy()
    #: How DIRUPDATEs reach the peers.  ``"unicast"`` is the paper's
    #: all-pairs pattern: the updater sends to every peer itself, O(n)
    #: sender CPU and sends per update.  ``"hierarchy"`` relays through
    #: a k-ary fan-out tree over the peers (the dissemination
    #: alternative the cooperative-caching surveys describe): the
    #: updater pays for ``dissemination_fanout`` sends, interior peers
    #: forward, and the update lands after O(log n) hops -- total
    #: messages unchanged, sender load constant, extra staleness from
    #: the tree depth.
    dissemination: str = "unicast"
    #: Children per node of the hierarchical dissemination tree.
    dissemination_fanout: int = 4

    def __post_init__(self) -> None:
        if self.dissemination not in ("unicast", "hierarchy"):
            raise ConfigurationError(
                f"dissemination must be 'unicast' or 'hierarchy', "
                f"got {self.dissemination!r}"
            )
        if self.dissemination_fanout < 1:
            raise ConfigurationError("dissemination_fanout must be >= 1")


class SimOrigin:
    """The origin-server pool: a fixed reply delay, no queueing.

    The benchmark runs 30 server processes; each forks per request, so
    server-side parallelism is effectively unbounded and the 1-second
    sleep dominates -- modelled as pure delay with +-10% deterministic
    per-URL jitter (a real testbed's scheduling/network noise; without
    it the closed-loop clients lock into thundering herds that never
    occur on hardware).
    """

    def __init__(self, engine: Engine, delay: float = 1.0) -> None:
        self.engine = engine
        self.delay = delay
        self.counters = PacketCounters()
        self.requests = 0

    def delay_for(self, url: str) -> float:
        """The reply delay for *url* (deterministic jitter around
        :attr:`delay`)."""
        if self.delay <= 0:
            return 0.0
        # Not hash(url): str hashes are salted per process.
        frac = int.from_bytes(md5_digest(url)[:2], "big") / 0xFFFF
        return self.delay * (0.9 + 0.2 * frac)


class SimProxy:
    """One simulated proxy node."""

    def __init__(
        self,
        engine: Engine,
        index: int,
        config: SimProxyConfig,
        costs: CostModel,
        network: NetworkModel,
        origin: SimOrigin,
    ) -> None:
        self.engine = engine
        self.index = index
        self.config = config
        self.costs = costs
        self.network = network
        self.origin = origin
        self.cpu: Resource = engine.resource(f"cpu{index}")
        self.cpu_account = CpuAccount()
        self.counters = PacketCounters()
        #: The protocol decisions, made as the live proxy makes them.
        self.scheme = scheme_for(config.mode)
        #: The local summary plus its update bookkeeping.
        self.node = SummaryNode(
            config.summary,
            config.cache_capacity,
            doc_size=config.expected_doc_size,
        )
        self.cache = WebCache(
            config.cache_capacity,
            max_object_size=config.max_object_size,
            on_insert=self.node.on_insert,
            on_evict=self.node.on_evict,
        )
        #: Set by :func:`connect`: the other proxies, the whole cluster
        #: in index order, the other proxies' slots as a mask, and the
        #: summary copies the cluster's peers currently hold (slot i is
        #: proxy i's; a delta is applied when its DIRUPDATE
        #: dissemination completes).
        self.peers: List["SimProxy"] = []
        self.cluster: Sequence["SimProxy"]
        self.everyone = 0
        self.peer_summaries: PeerSummaries
        # Outcome tallies.
        self.http_requests = 0
        self.local_hits = 0
        self.remote_hits = 0
        self.false_query_rounds = 0
        self.remote_stale_hits = 0
        self.icp_queries_sent = 0
        self.icp_replies_received = 0
        self.dirupdates_sent = 0
        self.bytes_served = 0

    def _charge(self, user: float = 0.0, system: float = 0.0):
        """Charge CPU and return the completion signal to yield on."""
        total = self.cpu_account.charge(user=user, system=system)
        return self.cpu.serve(total)

    # -- the request path ---------------------------------------------

    def handle_request(self, request: Request):
        """Generator process serving one client request end to end."""
        self.http_requests += 1
        costs = self.costs

        # Base HTTP handling cost plus per-byte copy cost for the body
        # this request will serve.
        yield self._charge(
            user=costs.http_user,
            system=costs.http_system + request.size * costs.byte_system,
        )

        entry = self.cache.get(
            request.url, version=request.version, size=request.size
        )
        if entry is not None:
            self.local_hits += 1
            self.bytes_served += entry.size
            return

        outcome = yield from self._ask_peers(request)
        if outcome == STALE:
            self.remote_stale_hits += 1
        elif outcome == FALSE_HIT:
            self.false_query_rounds += 1
        if outcome != REMOTE_HIT:
            yield from self._fetch_origin(request)

        if not self.scheme.keeps(outcome == REMOTE_HIT):
            return
        self.cache.put(request.url, request.size, version=request.version)
        if self.scheme.summaries and self.node.due_for_update(
            self.config.update_policy, self.engine.now, len(self.cache)
        ):
            yield from self._broadcast_update()

    def _ask_peers(self, request: Request):
        """Query the peers the scheme names; fetch from the first fresh
        holder.  Returns how the round resolved."""
        scheme = self.scheme
        if scheme.summaries and self.peers:
            # Probing the shipped summaries costs one MD5 of the URL.
            self.cpu_account.charge(user=self.costs.md5_user)
        asked = scheme.candidates(
            request.url, self.peer_summaries, self.everyone
        )
        if not asked:
            return NO_CANDIDATES
        candidates = [self.cluster[j] for j in slots_of(asked)]

        costs = self.costs
        # Send one query per candidate (cost at sender, UDP counters).
        yield self._charge(
            user=costs.icp_user * len(candidates),
            system=costs.icp_system * len(candidates),
        )
        self.icp_queries_sent += len(candidates)

        reply_signals = []
        replies: Dict[int, str] = {}
        for peer in candidates:
            self.counters.count_udp(peer.counters)
            replies[peer.index] = peer.cache.probe(
                request.url, request.version
            )
            # The peer processes the query and replies after the
            # network latency each way plus its own CPU queueing.
            done = self.engine.signal()
            self.engine.call_later(
                self.network.transfer_time(QUERY_MESSAGE_BYTES),
                self._peer_reply,
                peer,
                done,
            )
            reply_signals.append(done)

        # Wait for all replies (yielding signals sequentially still ends
        # at the latest completion, since each fires independently).
        for signal in reply_signals:
            yield signal
            self.icp_replies_received += 1
        # Receiving each reply costs CPU at the requester.
        yield self._charge(
            user=costs.icp_user * len(candidates),
            system=costs.icp_system * len(candidates),
        )

        holder = next(
            (p for p in candidates if replies[p.index] == "hit"), None
        )
        outcome = scheme.outcome(
            len(candidates), holder is not None, "stale" in replies.values()
        )
        if holder is None:
            return outcome

        # Fetch the document from the holder over TCP.
        yield self.network_delay(HTTP_REQUEST_BYTES)
        yield holder._charge(
            user=self.costs.peer_fetch_user,
            system=self.costs.peer_fetch_system
            + request.size * self.costs.byte_system,
        )
        holder.cache.touch(request.url)
        holder.bytes_served += request.size
        self.counters.count_tcp_exchange(
            holder.counters,
            HTTP_REQUEST_BYTES,
            HTTP_RESPONSE_HEAD_BYTES + request.size,
        )
        yield self.network_delay(HTTP_RESPONSE_HEAD_BYTES + request.size)
        self.remote_hits += 1
        self.bytes_served += request.size
        return outcome

    def _peer_reply(self, peer: "SimProxy", done) -> None:
        """Run the peer-side share of one query/reply exchange.

        The peer processes the query on its (single-threaded, FIFO)
        CPU -- ICP work contends with HTTP work, which is where the
        paper's latency overhead comes from -- then sends the reply.
        """

        def process():
            yield peer._charge(
                user=peer.costs.icp_user * 2,
                system=peer.costs.icp_system * 2,
            )
            peer.counters.count_udp(self.counters)
            yield self.network_delay(QUERY_MESSAGE_BYTES)
            done.fire()

        self.engine.spawn(process())

    def _fetch_origin(self, request: Request):
        """Fetch from the origin pool: latency-dominated."""
        self.origin.requests += 1
        self.counters.count_tcp_exchange(
            self.origin.counters,
            HTTP_REQUEST_BYTES,
            HTTP_RESPONSE_HEAD_BYTES + request.size,
        )
        yield (
            self.network.transfer_time(HTTP_REQUEST_BYTES)
            + self.origin.delay_for(request.url)
            + self.network.transfer_time(
                HTTP_RESPONSE_HEAD_BYTES + request.size
            )
        )
        self.bytes_served += request.size

    # -- summary update dissemination -----------------------------------

    def _broadcast_update(self):
        delta = self.node.publish(self.engine.now)
        if delta.is_empty() or not self.peers:
            return
        # Priced as the live proxy sends it: the codec's datagrams,
        # flip records or the whole array, whichever is smaller.
        messages = codec.update_messages(self.node.local, delta)
        num_messages = len(messages)
        message_bytes = messages[0].wire_size()
        if self.config.dissemination == "hierarchy":
            yield from self._hierarchy_update(
                delta, num_messages, message_bytes
            )
            return
        yield self._charge(
            user=self.costs.dirupdate_user * num_messages * len(self.peers),
            system=self.costs.dirupdate_system
            * num_messages
            * len(self.peers),
        )
        for peer in self.peers:
            for _ in range(num_messages):
                self.counters.count_udp(peer.counters)
                self.dirupdates_sent += 1
            peer.cpu_account.charge(
                user=peer.costs.dirupdate_user * num_messages,
                system=peer.costs.dirupdate_system * num_messages,
            )
        # Model delivery: after the LAN latency all peers hold the new
        # bits (applied to this proxy's slot of the shared copies).
        done = self.engine.signal()
        self.engine.call_later(
            self.network.transfer_time(message_bytes),
            self._apply_update,
            delta,
            done,
        )
        yield done

    def _apply_update(self, delta, done) -> None:
        self.peer_summaries.apply_delta(self.index, delta)
        done.fire()

    def _hierarchy_update(self, delta, num_messages, message_bytes):
        """Disseminate one update through a k-ary fan-out tree.

        The updater is the tree root; the peers occupy heap positions
        1..P in index order (deterministic across runs).  The root pays
        send CPU for its own children only; interior peers receive,
        then forward to theirs.  The delta lands on the shared shipped
        copy when the last peer has received -- the conservative
        reading of "all peers hold the new bits" under staggered
        delivery, so the extra tree-depth staleness is fully charged to
        the false-hit tally rather than hidden.

        Unlike the unicast path the updater does not block on delivery:
        propagation continues in background engine callbacks while the
        triggering request completes.
        """
        # Rotate the peer order so each updater roots a *different*
        # tree: with a fixed order the low-index peers would relay every
        # updater's traffic and concentrate exactly the load the
        # hierarchy exists to spread.
        cluster = len(self.peers) + 1
        order = sorted(
            self.peers, key=lambda p: (p.index - self.index) % cluster
        )
        fanout = self.config.dissemination_fanout
        state = {"delivered": 0}
        root_children = range(1, min(fanout, len(order)) + 1)
        yield self._charge(
            user=self.costs.dirupdate_user
            * num_messages
            * len(root_children),
            system=self.costs.dirupdate_system
            * num_messages
            * len(root_children),
        )
        for position in root_children:
            self._hierarchy_send(
                self, order, position, delta, num_messages,
                message_bytes, state,
            )

    def _hierarchy_send(
        self, sender, order, position, delta, num_messages,
        message_bytes, state,
    ) -> None:
        """Count *sender*'s datagrams to heap slot *position* and
        schedule their delivery one network hop later."""
        receiver = order[position - 1]
        for _ in range(num_messages):
            sender.counters.count_udp(receiver.counters)
            sender.dirupdates_sent += 1
        self.engine.call_later(
            self.network.transfer_time(message_bytes),
            self._hierarchy_deliver,
            order, position, delta, num_messages, message_bytes, state,
        )

    def _hierarchy_deliver(
        self, order, position, delta, num_messages, message_bytes, state
    ) -> None:
        """One peer received the update: charge it, relay, maybe apply."""
        node = order[position - 1]
        fanout = self.config.dissemination_fanout
        # The updater is heap node 0 and peers occupy slots 1..P, so
        # slot j's children are k*j+1 .. k*j+k -- every peer has exactly
        # one parent and receives the update exactly once.
        children = [
            child
            for child in range(
                fanout * position + 1, fanout * position + fanout + 1
            )
            if child <= len(order)
        ]
        sends = len(children)
        node.cpu_account.charge(
            user=node.costs.dirupdate_user * num_messages * (1 + sends),
            system=node.costs.dirupdate_system * num_messages * (1 + sends),
        )
        for child in children:
            self._hierarchy_send(
                node, order, child, delta, num_messages,
                message_bytes, state,
            )
        state["delivered"] += 1
        if state["delivered"] == len(order):
            self.peer_summaries.apply_delta(self.index, delta)

    # -- helpers ---------------------------------------------------------

    def network_delay(self, num_bytes: int):
        """A signal firing after one-way delivery of *num_bytes*."""
        done = self.engine.signal()
        self.engine.call_later(
            self.network.transfer_time(num_bytes), done.fire
        )
        return done


def connect(proxies: Sequence[SimProxy]) -> None:
    """Make *proxies* one cluster: every proxy peers with all others.

    ``proxies[i].index`` must be ``i``: it is the proxy's slot in the
    cluster's shared :class:`~repro.summaries.PeerSummaries`.
    """
    shipped = PeerSummaries.of([proxy.node.local for proxy in proxies])
    everyone = (1 << len(proxies)) - 1
    for proxy in proxies:
        proxy.peers = [p for p in proxies if p is not proxy]
        proxy.cluster = proxies
        proxy.everyone = everyone & ~(1 << proxy.index)
        proxy.peer_summaries = shipped


class SimClient:
    """A closed-loop client bound to one proxy."""

    def __init__(
        self,
        engine: Engine,
        proxy: SimProxy,
        requests: Iterable[Request],
        network: NetworkModel,
    ) -> None:
        self.engine = engine
        self.proxy = proxy
        self.requests = requests
        self.network = network
        self.counters = PacketCounters()
        self.latencies: List[float] = []
        self.done = engine.signal()

    def run(self):
        """Generator process issuing requests back to back."""
        for request in self.requests:
            start = self.engine.now
            # Request travels to the proxy ...
            yield self.network.transfer_time(HTTP_REQUEST_BYTES)
            self.proxy.counters.count_tcp_exchange(
                self.counters,
                HTTP_RESPONSE_HEAD_BYTES + request.size,
                HTTP_REQUEST_BYTES,
            )
            yield from self.proxy.handle_request(request)
            # ... and the response travels back.
            yield self.network.transfer_time(
                HTTP_RESPONSE_HEAD_BYTES + request.size
            )
            self.latencies.append(self.engine.now - start)
        self.done.fire()

    def start(self) -> None:
        """Spawn this client's process on the engine."""
        self.engine.spawn(self.run())
