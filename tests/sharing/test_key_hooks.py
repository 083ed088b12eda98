"""The simulators' key-carrying cache hooks against the URL hooks.

The replay loop wires each summary-sharing proxy's cache to
:meth:`SummaryNode.insert` / :meth:`SummaryNode.evict` through the run's
url -> summary key memo, so no insert or evict re-derives a key.  Any
request sequence must leave each summary exactly as the URL-deriving
:meth:`SummaryNode.on_insert` / :meth:`SummaryNode.on_evict` leave it:
same counters and bits, key counts, pending record count,
and drained delta.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import WebCache
from repro.sharing.engine import _summary_proxies
from repro.sharing.summary_sharing import SummarySharingConfig
from repro.summaries import BloomSummary, SummaryConfig, SummaryNode

KiB = 1024
URLS = [f"http://s{i % 4}.example.com/doc{i}" for i in range(12)]
SHAPES = {
    "bloom-one-geometry": ("bloom", [16 * KiB] * 3),
    "bloom-two-geometries": ("bloom", [16 * KiB, 32 * KiB, 16 * KiB]),
    "exact-directory": ("exact-directory", [16 * KiB] * 3),
    "server-name": ("server-name", [16 * KiB] * 3),
}

# ("put", proxy, url, size, version), ("get", proxy, url, version) or
# ("probe", url).  Documents of 1-6 KiB overflow a 16 KiB cache
# within a few puts; 20 KiB ones exceed the whole cache and 260 KiB
# ones the 250 KiB object limit.  Versions 0-1 make stale copies, which
# ``get`` drops through the evict hook.
put_op = st.tuples(
    st.just("put"),
    st.integers(0, 1),
    st.sampled_from(URLS),
    st.sampled_from([n * KiB for n in (1, 2, 3, 4, 5, 6, 20, 260)]),
    st.integers(0, 1),
)
get_op = st.tuples(
    st.just("get"), st.integers(0, 1), st.sampled_from(URLS), st.integers(0, 1)
)
probe_op = st.tuples(st.just("probe"), st.sampled_from(URLS))
ops_strategy = st.lists(
    st.one_of(put_op, put_op, get_op, probe_op), min_size=60, max_size=200
)


def _state(node: SummaryNode):
    """Everything an insert or evict can change in *node*'s summary."""
    local = node.local
    if isinstance(local, BloomSummary):
        counters = local.counters
        held = (counters.to_bytes(), counters.bits.to_bytes())
    else:
        held = sorted(local._counts.items())
    return node.new_since_update, held, local.pending_change_count()


def _delta(node: SummaryNode):
    delta = node.publish(0.0)
    return vars(delta)


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy)
def test_memo_fed_hooks_match_url_hooks(ops):
    for kind, capacities in SHAPES.values():
        config = SummarySharingConfig(
            summary=SummaryConfig(kind=kind), expected_doc_size=2 * KiB
        )
        caches, wired, _, probe_keys = _summary_proxies(capacities, config)
        nodes = [
            SummaryNode(config.summary, size, doc_size=config.expected_doc_size)
            for size in capacities
        ]
        plain = [
            WebCache(size, on_insert=node.on_insert, on_evict=node.on_evict)
            for node, size in zip(nodes, capacities)
        ]
        for step, op in enumerate(ops):
            if op[0] == "probe":
                probe_keys[op[1]]  # fills the probe memo, as a miss does
                continue
            if op[0] == "put":
                _, g, url, size, version = op
                got = caches[g].put(url, size, version=version)
                assert got == plain[g].put(url, size, version=version)
            else:
                _, g, url, version = op
                got = caches[g].get(url, version=version)
                want = plain[g].get(url, version=version)
                assert (got is None) == (want is None)
            assert _state(wired[g]) == _state(nodes[g]), (kind, step)
            if step % 17 == 16:
                assert _delta(wired[g]) == _delta(nodes[g])
        for got_node, node in zip(wired, nodes):
            assert _state(got_node) == _state(node)
            assert _delta(got_node) == _delta(node)
