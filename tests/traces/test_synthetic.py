"""Tests for the synthetic trace generator."""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traces.stats import compute_stats
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.urlutil import server_of

BASE = SyntheticTraceConfig(
    num_requests=3000,
    num_clients=40,
    num_documents=1200,
    seed=5,
)


class TestDeterminism:
    def test_same_config_same_trace(self):
        a = generate_trace(BASE)
        b = generate_trace(BASE)
        assert [r.url for r in a] == [r.url for r in b]
        assert [r.timestamp for r in a] == [r.timestamp for r in b]

    def test_different_seed_differs(self):
        a = generate_trace(BASE)
        b = generate_trace(replace(BASE, seed=6))
        assert [r.url for r in a] != [r.url for r in b]


class TestStructure:
    def test_request_count(self):
        assert len(generate_trace(BASE)) == 3000

    def test_timestamps_monotone(self):
        trace = generate_trace(BASE)
        times = [r.timestamp for r in trace]
        assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))

    def test_sizes_within_bounds(self):
        config = replace(BASE, max_size=64 * 1024)
        trace = generate_trace(config)
        assert all(64 <= r.size <= 64 * 1024 for r in trace)

    def test_same_document_same_size(self):
        trace = generate_trace(BASE)
        sizes = {}
        for req in trace:
            assert sizes.setdefault(req.url, req.size) == req.size

    def test_clients_within_range(self):
        trace = generate_trace(BASE)
        assert all(0 <= r.client_id < 40 for r in trace)

    def test_url_to_server_ratio_matches_docs_per_server(self):
        trace = generate_trace(replace(BASE, docs_per_server=10))
        urls = {r.url for r in trace}
        servers = {server_of(r.url) for r in trace}
        ratio = len(urls) / len(servers)
        # With Zipf sampling not every doc of a server is touched, so
        # the observed ratio is below 10 but well above 1.
        assert 2.0 < ratio <= 10.0


class TestBehaviouralKnobs:
    def test_more_locality_means_more_reuse(self):
        low = compute_stats(
            generate_trace(replace(BASE, locality_probability=0.05))
        )
        high = compute_stats(
            generate_trace(replace(BASE, locality_probability=0.7))
        )
        assert high.max_hit_ratio > low.max_hit_ratio + 0.05

    def test_modification_probability_creates_version_churn(self):
        static = generate_trace(replace(BASE, mod_probability=0.0))
        churn = generate_trace(replace(BASE, mod_probability=0.05))
        assert all(r.version == 0 for r in static)
        assert any(r.version > 0 for r in churn)

    def test_zipf_alpha_skews_popularity(self):
        flat = generate_trace(replace(BASE, zipf_alpha=0.1, locality_probability=0.0))
        skewed = generate_trace(replace(BASE, zipf_alpha=1.2, locality_probability=0.0))

        def top_share(trace):
            counts = Counter(r.url for r in trace)
            top = sum(c for _u, c in counts.most_common(20))
            return top / len(trace)

        assert top_share(skewed) > top_share(flat) + 0.1

    def test_request_rate_sets_duration(self):
        slow = generate_trace(replace(BASE, request_rate=1.0))
        fast = generate_trace(replace(BASE, request_rate=100.0))
        assert slow.duration > 10 * fast.duration


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_requests": 0},
            {"num_clients": 0},
            {"num_documents": 0},
            {"locality_probability": 1.5},
            {"pareto_alpha": 1.0},
            {"mod_probability": -0.1},
            {"request_rate": 0.0},
            {"docs_per_server": 0},
            {"mean_size": 0},
            {"mean_size": -5},
            {"max_size": 10},
            {"max_size": 63},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            replace(BASE, **kwargs)

    def test_smallest_sizes_are_honoured(self):
        config = replace(BASE, num_requests=200, mean_size=1, max_size=64)
        assert {r.size for r in generate_trace(config)} == {64}

    def test_scaled(self):
        scaled = BASE.scaled(0.5)
        assert scaled.num_requests == 1500
        assert scaled.num_clients == 20
        with pytest.raises(ConfigurationError):
            BASE.scaled(0)


class TestServerLocality:
    def test_in_cache_url_server_concentration(self):
        """Browsing-session locality plus heavy-tailed site sizes give a
        cache far fewer distinct servers than documents (the paper's
        ~10:1 observation that server-name summaries bank on)."""
        from repro.cache import WebCache
        from repro.urlutil import server_of

        trace = generate_trace(
            replace(BASE, num_requests=8000, server_locality=0.5)
        )
        cache = WebCache(300_000)
        for req in trace:
            if cache.get(req.url, version=req.version, size=req.size) is None:
                cache.put(req.url, req.size, version=req.version)
        urls = cache.urls()
        servers = {server_of(u) for u in urls}
        assert len(urls) / len(servers) > 2.5

    def test_zero_server_locality_spreads_servers(self):
        from repro.urlutil import server_of

        clustered = generate_trace(replace(BASE, server_locality=0.8))
        spread = generate_trace(replace(BASE, server_locality=0.0))

        def distinct_servers(trace):
            return len({server_of(r.url) for r in trace})

        assert distinct_servers(clustered) < distinct_servers(spread)

    def test_server_locality_validation(self):
        with pytest.raises(ConfigurationError):
            replace(BASE, server_locality=1.5)

    def test_heavy_tailed_server_sizes(self):
        """With server_size_alpha > 0 the largest site hosts many more
        documents than the median site."""
        from collections import Counter
        from repro.urlutil import server_of

        trace = generate_trace(
            replace(BASE, zipf_alpha=0.1, locality_probability=0.0)
        )
        docs_per_server = Counter()
        seen = set()
        for req in trace:
            if req.url not in seen:
                seen.add(req.url)
                docs_per_server[server_of(req.url)] += 1
        sizes = sorted(docs_per_server.values())
        assert sizes[-1] > 5 * sizes[len(sizes) // 2]


class TestStreamingCore:
    """iter_requests() is the generator core generate_trace() wraps."""

    def test_stream_matches_materialized_trace(self):
        from repro.traces.synthetic import iter_requests

        assert list(iter_requests(BASE)) == generate_trace(BASE).requests

    def test_block_size_never_changes_the_stream(self):
        from repro.traces.synthetic import iter_requests

        reference = list(iter_requests(BASE))
        for block_size in (1, 97, 8192, 10**9):
            assert (
                list(iter_requests(BASE, block_size=block_size))
                == reference
            ), block_size

    def test_rejects_bad_block_size(self):
        from repro.traces.synthetic import iter_requests

        with pytest.raises(ConfigurationError):
            next(iter_requests(BASE, block_size=0))

    def test_stream_is_lazy(self):
        from itertools import islice

        from repro.traces.synthetic import iter_requests

        # Draw a prefix without exhausting the stream: the prefix must
        # equal the full trace's prefix (jump-ahead RNG streams, not a
        # different sequence).
        prefix = list(islice(iter_requests(BASE), 10))
        assert prefix == generate_trace(BASE).requests[:10]


class TestRecencyWalk:
    """The locality draw walks back from a client's newest document."""

    @given(
        docs=st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1,
            max_size=64,
            unique=True,
        ),
        back=st.integers(min_value=0, max_value=200),
    )
    def test_walk_matches_the_list_index(self, docs, back):
        from repro.traces.synthetic import _nth_newest

        stack = OrderedDict.fromkeys(docs)
        items = list(stack)
        expected = items[len(items) - 1 - min(back, len(items) - 1)]
        assert _nth_newest(stack, back) == expected
