"""Tests for the Section III sharing schemes (Fig. 1)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sharing.schemes import (
    simulate_global_cache,
    simulate_no_sharing,
    simulate_simple_sharing,
    simulate_single_copy_sharing,
)
from repro.sharing.summary_sharing import simulate_icp
from repro.traces.model import Request, Trace
from repro.traces.workloads import make_workload

KiB = 1024
WORKLOAD_SLICES = ("dec", "upisa", "questnet")


class TestTinyTraceByHand:
    """The 6-request fixture has an exactly computable outcome.

    Requests (client -> group with 2 groups): /1 by g0, /1 by g1,
    /2 by g0, /2 by g1, /1 by g0, /3 by g1.
    """

    CAPACITY = 10_000  # effectively infinite for the fixture

    def test_no_sharing(self, tiny_trace):
        r = simulate_no_sharing(tiny_trace, 2, self.CAPACITY)
        # g0 hits /1 on its second access; g1 never re-references.
        assert r.local_hits == 1
        assert r.remote_hits == 0
        assert r.total_hit_ratio == pytest.approx(1 / 6)

    def test_simple_sharing(self, tiny_trace):
        r = simulate_simple_sharing(tiny_trace, 2, self.CAPACITY)
        # g1's /1 and /2 are remote hits (g0 fetched them first);
        # g0's second /1 is a local hit.
        assert r.local_hits == 1
        assert r.remote_hits == 2
        assert r.total_hit_ratio == pytest.approx(0.5)

    def test_single_copy_sharing(self, tiny_trace):
        r = simulate_single_copy_sharing(tiny_trace, 2, self.CAPACITY)
        assert r.remote_hits == 2
        assert r.local_hits == 1
        assert r.total_hit_ratio == pytest.approx(0.5)

    def test_global_cache(self, tiny_trace):
        r = simulate_global_cache(tiny_trace, 2, self.CAPACITY)
        # One shared cache: /1 hit twice, /2 once.
        assert r.local_hits == 3
        assert r.total_hit_ratio == pytest.approx(0.5)


class TestGroupRule:
    """Client c is served by proxy c mod N (the paper's partition)."""

    def test_clients_congruent_mod_n_share_a_proxy(self):
        trace = Trace(
            requests=[
                Request(0.0, 1, "http://x.com/a", 100),
                Request(1.0, 3, "http://x.com/a", 100),
            ]
        )
        r = simulate_no_sharing(trace, 2, 10_000)
        assert (r.requests, r.local_hits) == (2, 1)

    def test_clients_apart_mod_n_do_not(self):
        trace = Trace(
            requests=[
                Request(0.0, 0, "http://x.com/b", 100),
                Request(1.0, 1, "http://x.com/b", 100),
            ]
        )
        r = simulate_no_sharing(trace, 2, 10_000)
        assert (r.requests, r.local_hits) == (2, 0)


class TestSingleCopyKeepsOneCopy:
    def test_no_duplicate_caching_on_remote_hit(self):
        trace = Trace(
            requests=[
                Request(0.0, 0, "u", 100),
                Request(1.0, 1, "u", 100),  # remote hit: not copied
                Request(2.0, 1, "u", 100),  # still remote
            ]
        )
        r = simulate_single_copy_sharing(trace, 2, 10_000)
        assert r.remote_hits == 2
        assert r.local_hits == 0

    def test_simple_sharing_duplicates(self):
        trace = Trace(
            requests=[
                Request(0.0, 0, "u", 100),
                Request(1.0, 1, "u", 100),  # remote hit, copied locally
                Request(2.0, 1, "u", 100),  # now a local hit
            ]
        )
        r = simulate_simple_sharing(trace, 2, 10_000)
        assert r.remote_hits == 1
        assert r.local_hits == 1


class TestStaleness:
    def test_remote_stale_hit_counted(self):
        trace = Trace(
            requests=[
                Request(0.0, 0, "u", 100, version=0),
                Request(1.0, 1, "u", 100, version=1),  # peer copy stale
            ]
        )
        r = simulate_simple_sharing(trace, 2, 10_000)
        assert r.remote_hits == 0
        assert r.remote_stale_hits == 1

    def test_local_stale_counted(self):
        trace = Trace(
            requests=[
                Request(0.0, 0, "u", 100, version=0),
                Request(1.0, 0, "u", 100, version=1),
            ]
        )
        r = simulate_no_sharing(trace, 2, 10_000)
        assert r.local_hits == 0
        assert r.local_stale_hits == 1


class TestOrderings:
    """The orderings the paper reports in Fig. 1 on a real workload."""

    @pytest.fixture(scope="class")
    def results(self, small_trace):
        capacity = 200_000
        groups = 4
        return {
            "none": simulate_no_sharing(small_trace, groups, capacity),
            "simple": simulate_simple_sharing(small_trace, groups, capacity),
            "single": simulate_single_copy_sharing(
                small_trace, groups, capacity
            ),
            "global": simulate_global_cache(small_trace, groups, capacity),
            "global90": simulate_global_cache(
                small_trace, groups, capacity, capacity_scale=0.9
            ),
        }

    def test_sharing_beats_no_sharing(self, results):
        for name in ("simple", "single", "global"):
            assert (
                results[name].total_hit_ratio
                > results["none"].total_hit_ratio + 0.02
            )

    def test_sharing_schemes_are_close(self, results):
        ratios = [
            results[n].total_hit_ratio
            for n in ("simple", "single", "global")
        ]
        assert max(ratios) - min(ratios) < 0.08

    def test_smaller_global_cache_hits_less(self, results):
        assert (
            results["global90"].total_hit_ratio
            <= results["global"].total_hit_ratio + 1e-9
        )

    def test_request_conservation(self, results, small_trace):
        for r in results.values():
            assert r.requests == len(small_trace)
            assert r.total_hits <= r.requests


class TestValidation:
    def test_global_cache_scale_must_be_positive(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            simulate_global_cache(tiny_trace, 2, 1000, capacity_scale=0)


class TestPerProxyCapacities:
    def test_scalar_and_sequence_equivalent(self, tiny_trace):
        scalar = simulate_simple_sharing(tiny_trace, 2, 10_000)
        explicit = simulate_simple_sharing(
            tiny_trace, 2, [10_000, 10_000]
        )
        assert scalar.total_hit_ratio == explicit.total_hit_ratio

    def test_global_pools_heterogeneous_capacities(self, tiny_trace):
        r = simulate_global_cache(tiny_trace, 2, [400, 600])
        # Pooled capacity is the sum; the average is recorded.
        assert r.cache_capacity_bytes == 500

    def test_bigger_cache_for_busier_group_helps(self, small_trace):
        # Give the heavier groups more space: hit ratio must not drop
        # relative to splitting the same total evenly.
        shares = [0, 0, 0, 0]
        for req in small_trace:
            shares[req.client_id % 4] += 1
        total = 400_000
        proportional = [
            max(1, total * share // len(small_trace)) for share in shares
        ]
        even = simulate_no_sharing(small_trace, 4, total // 4)
        prop = simulate_no_sharing(small_trace, 4, proportional)
        assert prop.total_hit_ratio >= even.total_hit_ratio - 0.01

    def test_capacity_count_mismatch_rejected(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            simulate_no_sharing(tiny_trace, 2, [100])

    def test_nonpositive_capacity_rejected(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            simulate_no_sharing(tiny_trace, 2, [100, 0])


@pytest.fixture(scope="module")
def workload_slices():
    return {
        name: make_workload(name, scale=0.05, seed=1)
        for name in WORKLOAD_SLICES
    }


@pytest.mark.parametrize("capacity", [64 * KiB, 256 * KiB])
@pytest.mark.parametrize("workload", WORKLOAD_SLICES)
def test_folded_schemes_equal_their_base(workload_slices, workload, capacity):
    """The equivalences one replay loop for every scheme rests on.

    ICP is simple sharing that also prices its queries; a global cache
    is no sharing over one group that holds the pooled capacity.
    """
    trace, n = workload_slices[workload]
    unpriced = {"scheme": "", "messages": None}
    icp = simulate_icp(trace, n, capacity)
    simple = simulate_simple_sharing(trace, n, capacity)
    assert icp.messages.query_messages > 0
    assert {**vars(icp), **unpriced} == {**vars(simple), **unpriced}

    unsized = {"scheme": "", "num_proxies": 0, "cache_capacity_bytes": 0}
    pooled = simulate_global_cache(trace, n, capacity)
    alone = simulate_no_sharing(trace, 1, n * capacity)
    assert {**vars(pooled), **unsized} == {**vars(alone), **unsized}
