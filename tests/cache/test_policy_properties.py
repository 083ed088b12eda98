"""Property-based tests of replacement policies against reference models."""

from __future__ import annotations

import heapq
import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policies import (
    _HEAP_FLOOR,
    FIFOPolicy,
    GDSFPolicy,
    LFUPolicy,
    LRUPolicy,
)

KEYS = [f"k{i}" for i in range(12)]

# An operation stream: (key, is_access). Inserts happen implicitly the
# first time a key appears; accesses of untracked keys are skipped.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(KEYS), st.booleans()), max_size=150
)


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_lru_matches_ordered_dict_model(ops):
    policy = LRUPolicy()
    model: "OrderedDict[str, None]" = OrderedDict()
    for key, is_access in ops:
        if key in model:
            if is_access:
                policy.on_access(key)
                model.move_to_end(key)
        else:
            policy.on_insert(key, 1)
            model[key] = None
    while model:
        expected = next(iter(model))
        assert policy.victim() == expected
        policy.on_remove(expected)
        del model[expected]


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_fifo_ignores_accesses(ops):
    policy = FIFOPolicy()
    insertion_order = []
    for key, is_access in ops:
        if key in insertion_order:
            if is_access:
                policy.on_access(key)
        else:
            policy.on_insert(key, 1)
            insertion_order.append(key)
    for expected in insertion_order:
        assert policy.victim() == expected
        policy.on_remove(expected)


@given(ops_strategy)
@settings(max_examples=80, deadline=None)
def test_lfu_victim_has_minimal_frequency(ops):
    policy = LFUPolicy()
    freq = {}
    for key, is_access in ops:
        if key in freq:
            if is_access:
                policy.on_access(key)
                freq[key] += 1
        else:
            policy.on_insert(key, 1)
            freq[key] = 1
    while freq:
        victim = policy.victim()
        assert freq[victim] == min(freq.values())
        policy.on_remove(victim)
        del freq[victim]


class _LazyHeap:
    """The uncompacted lazy heap LFU and GDSF used to be: one entry
    pushed per hit, none dropped except at the top of the heap."""

    def __init__(self, gdsf: bool) -> None:
        self.gdsf = gdsf
        self.rank: dict = {}
        self.freq: dict = {}
        self.size: dict = {}
        self.heap: list = []
        self.seq = 0
        self.inflation = 0.0

    def push(self, key):
        if self.gdsf:
            rank = self.inflation + self.freq[key] / max(1, self.size[key])
        else:
            rank = self.freq[key]
        self.rank[key] = rank
        self.seq += 1
        heapq.heappush(self.heap, (rank, self.seq, key))

    def on_insert(self, key, size):
        self.freq[key] = 1
        self.size[key] = size
        self.push(key)

    def on_access(self, key):
        self.freq[key] += 1
        self.push(key)

    def on_remove(self, key):
        del self.rank[key], self.freq[key], self.size[key]

    def victim(self):
        while True:
            rank, _, key = self.heap[0]
            if self.rank.get(key) == rank:
                self.inflation = rank
                return key
            heapq.heappop(self.heap)


# Inserts of new documents (with a size), hits on a live one (an index
# into the live list), and evictions of the policy's victim.
stream_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 5000)),
        st.tuples(st.just("access"), st.integers(0, 10_000)),
        st.tuples(st.just("evict"), st.just(0)),
    ),
    max_size=600,
)


def _replay_against_lazy_heap(ops, cls, gdsf: bool) -> int:
    """Drive *cls* and the lazy model with *ops*; return the rebuilds.

    Every key is new when inserted: a removed key that came back could
    pick up one of its old entries in the lazy heap (matched on rank
    alone), which the policies now refuse."""
    policy, model = cls(), _LazyHeap(gdsf)
    live: list = []
    rebuilds = 0
    for step, (op, arg) in enumerate(ops):
        before = len(policy._heap)
        if op == "insert":
            key = f"d{step}"
            policy.on_insert(key, arg)
            model.on_insert(key, arg)
            live.append(key)
        elif live and op == "access":
            key = live[arg % len(live)]
            policy.on_access(key)
            model.on_access(key)
        elif live and op == "evict":
            victim = policy.victim()
            assert victim == model.victim()
            policy.on_remove(victim)
            model.on_remove(victim)
            live.remove(victim)
            continue
        else:
            continue
        rebuilds += len(policy._heap) <= before
        assert len(policy._heap) <= 2 * len(live) + _HEAP_FLOOR
    while live:
        victim = policy.victim()
        assert victim == model.victim()
        policy.on_remove(victim)
        model.on_remove(victim)
        live.remove(victim)
    return rebuilds


@given(stream_strategy)
@settings(max_examples=60, deadline=None)
def test_compacting_heaps_evict_what_the_lazy_heaps_did(ops):
    """Compaction keeps the heap bounded without changing a victim."""
    _replay_against_lazy_heap(ops, LFUPolicy, gdsf=False)
    _replay_against_lazy_heap(ops, GDSFPolicy, gdsf=True)


def test_compaction_happens_on_a_long_hit_heavy_stream():
    rng = random.Random(7)
    ops = [
        ("insert", rng.randint(1, 5000)) if r < 0.2
        else ("evict", 0) if r < 0.35
        else ("access", rng.randrange(10_000))
        for r in (rng.random() for _ in range(20_000))
    ]
    assert _replay_against_lazy_heap(ops, LFUPolicy, gdsf=False) > 10
    assert _replay_against_lazy_heap(ops, GDSFPolicy, gdsf=True) > 10


@given(
    st.lists(
        st.tuples(
            st.sampled_from(KEYS),
            st.integers(1, 500),
            st.booleans(),
        ),
        max_size=120,
    )
)
@settings(max_examples=60, deadline=None)
def test_every_policy_tracks_exact_key_set(ops):
    """Whatever the op stream, len(policy) equals the live key count and
    draining victims empties each policy exactly once per key."""
    from repro.cache.policies import make_policy

    for name in ("lru", "fifo", "lfu", "size", "gdsf"):
        policy = make_policy(name)
        live = set()
        for key, size, is_access in ops:
            if key in live:
                if is_access:
                    policy.on_access(key)
            else:
                policy.on_insert(key, size)
                live.add(key)
        assert len(policy) == len(live)
        drained = set()
        while live:
            victim = policy.victim()
            assert victim in live
            assert victim not in drained
            policy.on_remove(victim)
            live.discard(victim)
            drained.add(victim)
