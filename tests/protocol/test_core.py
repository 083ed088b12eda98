"""The protocol core's decisions, and the replay engine's copy of them.

The DES and the live proxy decide through :mod:`repro.protocol.core`.
The trace-driven replay keeps an inlined copy of the same rules in its
hot loop; :func:`core_replay` replays a stream asking the core for every
decision, and :func:`test_the_engine_decides_as_the_core` holds the
engine to it, request for request.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import CooperationPolicy
from repro.protocol.core import (
    FALSE_HIT,
    NO_CANDIDATES,
    NO_HOLDER,
    REMOTE_HIT,
    STALE,
    Scheme,
)
from repro.cache import WebCache
from repro.proxy.config import ProxyMode, scheme_for
from repro.sharing.engine import _replay
from repro.sharing.summary_sharing import SummarySharingConfig
from repro.summaries import (
    PeerSummaries,
    SummaryConfig,
    SummaryNode,
    ThresholdUpdatePolicy,
    slots_of,
)
from tests.sharing.test_properties import build_trace, requests_strategy

EXACT = SummaryConfig(kind="exact-directory")

#: Room for a handful of the random streams' 100-115 byte documents.
CAPACITY = 600


class TestSchemeFor:
    @pytest.mark.parametrize(
        "mode, cooperation, ask, caches",
        [
            (ProxyMode.NO_ICP, "summary", "none", True),
            (ProxyMode.ICP, "summary", "all", True),
            (ProxyMode.SC_ICP, "summary", "summaries", True),
            (ProxyMode.ICP, "single-copy", "all", False),
            (ProxyMode.SC_ICP, "single-copy", "summaries", False),
        ]
        + [(mode, "carp", "none", False) for mode in ProxyMode],
    )
    def test_mode_and_cooperation_make_the_scheme(
        self, mode, cooperation, ask, caches
    ):
        scheme = scheme_for(mode, CooperationPolicy.parse(cooperation))
        assert scheme == Scheme(ask, caches_remote_hits=caches)

    def test_summary_cooperation_is_the_default(self):
        assert scheme_for(ProxyMode.SC_ICP) == Scheme("summaries")


class TestDecisions:
    def test_outcomes(self):
        icp, summaries = Scheme("all"), Scheme("summaries")
        assert icp.outcome(0, False) == NO_CANDIDATES
        assert icp.outcome(2, True, stale=True) == REMOTE_HIT
        assert icp.outcome(2, False, stale=True) == STALE
        assert icp.outcome(2, False) == NO_HOLDER
        assert summaries.outcome(2, False) == FALSE_HIT

    def test_candidates_stay_within_everyone(self):
        holder = SummaryNode(EXACT, 1000)
        holder.on_insert("http://a.com/x")
        peers = PeerSummaries.of([holder.local] * 3)
        held, other = "http://a.com/x", "http://a.com/y"
        assert Scheme("none").candidates(held, peers, 0b110) == 0
        assert Scheme("all").candidates(other, peers, 0b110) == 0b110
        assert Scheme("summaries").candidates(held, peers, 0b110) == 0b110
        assert Scheme("summaries").candidates(other, peers, 0b110) == 0
        assert Scheme("all").candidates(held, peers, 0) == 0

    def test_single_copy_leaves_a_remote_hit_at_the_peer(self):
        single_copy = Scheme("all", caches_remote_hits=False)
        assert not single_copy.keeps(remote=True)
        assert single_copy.keeps(remote=False)
        assert Scheme("all").keeps(remote=True)

    def test_only_summaries_publish(self):
        assert Scheme("summaries").summaries
        assert not Scheme("all").summaries
        assert not Scheme("none").summaries

    def test_the_core_never_awaits(self):
        for member in vars(Scheme).values():
            assert not inspect.iscoroutinefunction(member)

    def test_the_proxy_imports_neither_simulator(self):
        script = (
            "import sys, repro.proxy.server\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('repro.sharing', 'repro.simulation'))))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        assert out.strip() == "[]"


#: Each sharing scheme as the engine's axes and as the core's Scheme.
SCHEMES = {
    "icp": (dict(ask="all", messages="icp"), Scheme("all")),
    "summary": (
        dict(ask="summaries", messages="summary"),
        Scheme("summaries"),
    ),
    "single-copy": (
        dict(ask="all", caches_remote_hits=False),
        Scheme("all", caches_remote_hits=False),
    ),
    "summary/single-copy": (
        dict(ask="summaries", messages="summary", caches_remote_hits=False),
        Scheme("summaries", caches_remote_hits=False),
    ),
}


def directories(caches):
    return [
        sorted((url, entry.version) for url, entry in cache.entries.items())
        for cache in caches
    ]


def core_replay(trace, groups, scheme, config):
    """Replay *trace* asking the core for every decision: the outcome
    tally and every proxy's final directory."""
    nodes = [
        SummaryNode(config.summary, CAPACITY, doc_size=config.expected_doc_size)
        for _ in range(groups)
    ]
    caches = [
        WebCache(CAPACITY, on_insert=node.on_insert, on_evict=node.on_evict)
        for node in nodes
    ]
    shipped = PeerSummaries.of([node.local for node in nodes])
    everyone = (1 << groups) - 1
    tally: Counter = Counter()
    for req in trace:
        g = req.client_id % groups
        cache, node = caches[g], nodes[g]
        if cache.get(req.url, req.version, req.size) is not None:
            tally["local"] += 1
            continue
        asked = slots_of(
            scheme.candidates(req.url, shipped, everyone & ~(1 << g))
        )
        replies = [caches[j].probe(req.url, req.version) for j in asked]
        held = "hit" in replies
        tally[scheme.outcome(len(asked), held, "stale" in replies)] += 1
        if held:
            caches[asked[replies.index("hit")]].touch(req.url)
        if not scheme.keeps(remote=held):
            continue
        cache.put(req.url, req.size, version=req.version)
        if scheme.summaries and node.due_for_update(
            config.update_policy, req.timestamp, len(cache)
        ):
            delta = node.publish(req.timestamp)
            if not delta.is_empty():
                shipped.apply_delta(g, delta)
    return tally, directories(caches)


@given(
    requests_strategy,
    st.sampled_from([2, 3, 4]),
    st.sampled_from(sorted(SCHEMES)),
    st.sampled_from(["exact-directory", "bloom"]),
    st.sampled_from([0.0, 0.05, 0.5]),
)
@settings(max_examples=80, deadline=None)
def test_the_engine_decides_as_the_core(raw, groups, name, kind, threshold):
    """The replay engine's inlined rules are the core's: the same hit
    taxonomy and the same directories at the end, on any stream."""
    trace = build_trace(raw)
    axes, scheme = SCHEMES[name]
    config = SummarySharingConfig(
        summary=SummaryConfig(kind=kind, load_factor=8),
        update_policy=ThresholdUpdatePolicy(threshold),
        expected_doc_size=100,
    )
    result, caches, _ = _replay(
        trace, name, [CAPACITY] * groups, summary=config, **axes
    )
    tally, expected = core_replay(trace, groups, scheme, config)
    assert (
        result.local_hits,
        result.remote_hits,
        result.remote_stale_hits,
        result.false_hits,
    ) == (tally["local"], tally[REMOTE_HIT], tally[STALE], tally[FALSE_HIT])
    assert directories(caches) == expected
