"""Tests for the Table II / IV / V experiment harnesses."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.proxy.config import ProxyMode
from repro.simulation.costs import CostModel, CpuAccount
from repro.simulation.experiment import (
    run_overhead_experiment,
    run_replay_experiment,
)
from repro.simulation.nodes import SimProxyConfig
from repro.summaries import ThresholdUpdatePolicy
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

SMALL = dict(clients_per_proxy=4, requests_per_client=50)


@pytest.fixture(scope="module")
def overhead_results():
    return {
        mode: run_overhead_experiment(mode, **SMALL)
        for mode in (ProxyMode.NO_ICP, ProxyMode.ICP, ProxyMode.SC_ICP)
    }


class TestCostModel:
    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(http_user=-1)

    def test_cpu_account(self):
        acct = CpuAccount()
        total = acct.charge(user=1.0, system=2.0)
        assert total == 3.0
        assert acct.user == 1.0
        assert acct.system == 2.0
        assert acct.total == 3.0


class TestOverheadExperiment:
    def test_no_remote_hits_by_construction(self, overhead_results):
        # "the requests issued by different clients do not overlap;
        # there is no remote cache hit among proxies."
        for result in overhead_results.values():
            assert result.remote_hit_ratio == 0.0

    def test_hit_ratio_same_across_modes(self, overhead_results):
        ratios = [r.hit_ratio for r in overhead_results.values()]
        assert max(ratios) - min(ratios) < 1e-9

    def test_icp_udp_factor_in_papers_range(self, overhead_results):
        base = overhead_results[ProxyMode.NO_ICP]
        icp = overhead_results[ProxyMode.ICP]
        base_udp = base.udp_sent + base.udp_received
        icp_udp = icp.udp_sent + icp.udp_received
        assert base_udp > 0  # keep-alives
        factor = icp_udp / base_udp
        # The paper's Table II: a factor of 73-90 at full benchmark
        # size.  This unit test runs at 1/15 of that size, where the
        # request rate (and hence ICP traffic per keep-alive) is lower.
        assert 10 < factor < 120

    def test_sc_icp_udp_far_below_icp(self, overhead_results):
        icp = overhead_results[ProxyMode.ICP]
        sc = overhead_results[ProxyMode.SC_ICP]
        icp_udp = icp.udp_sent + icp.udp_received
        sc_udp = sc.udp_sent + sc.udp_received
        # The paper: "The improved protocol reduces the UDP traffic by
        # a factor of 50."
        assert icp_udp / max(1, sc_udp) > 10

    def test_icp_cpu_and_latency_overheads_positive(self, overhead_results):
        base = overhead_results[ProxyMode.NO_ICP]
        icp = overhead_results[ProxyMode.ICP]
        overhead = icp.overhead_vs(base)
        assert 5 < overhead["user_cpu"] < 60
        assert 2 < overhead["system_cpu"] < 30
        # Latency inflation is queueing-driven and shrinks with the
        # light load of this small run; it just needs to be visible.
        assert overhead["latency"] > 0.1

    def test_sc_icp_close_to_no_icp(self, overhead_results):
        base = overhead_results[ProxyMode.NO_ICP]
        sc = overhead_results[ProxyMode.SC_ICP]
        overhead = sc.overhead_vs(base)
        assert overhead["user_cpu"] < 10
        assert overhead["latency"] < 3

    def test_icp_query_count_formula(self, overhead_results):
        icp = overhead_results[ProxyMode.ICP]
        misses = round(icp.requests * (1 - icp.hit_ratio))
        # Every miss queries all 3 peers.
        assert icp.false_query_rounds == 0  # ICP mode has no summaries
        expected_queries = misses * 3
        # queries sent + replies received both count as UDP at the
        # requester; each also counts at the peer.
        assert icp.udp_sent >= expected_queries

    def test_deterministic_with_same_seed(self):
        a = run_overhead_experiment(ProxyMode.ICP, seed=7, **SMALL)
        b = run_overhead_experiment(ProxyMode.ICP, seed=7, **SMALL)
        assert a.hit_ratio == b.hit_ratio
        assert a.mean_latency == b.mean_latency
        assert a.udp_sent == b.udp_sent

    def test_identical_across_hash_seeds(self):
        # str hashes are salted per process; the origin jitter (and
        # with it every latency and packet count) must not depend on it.
        script = (
            "from repro.proxy.config import ProxyMode\n"
            "from repro.simulation.experiment import "
            "run_overhead_experiment\n"
            "print(run_overhead_experiment(ProxyMode.SC_ICP, "
            "num_proxies=2, clients_per_proxy=3, requests_per_client=30))"
        )
        rows = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            rows.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                    timeout=120,
                ).stdout
            )
        assert rows[0].startswith("ExperimentResult(")
        assert rows[0] == rows[1]

    def test_caller_config_left_unchanged(self, replay_trace):
        config = SimProxyConfig(cache_capacity=1024 * 1024)
        before = replace(config)
        run_overhead_experiment(
            ProxyMode.SC_ICP, proxy_config=config, **SMALL
        )
        run_replay_experiment(
            replay_trace, ProxyMode.ICP, clients_per_proxy=4,
            proxy_config=config,
        )
        assert config == before
        assert config.mode is ProxyMode.NO_ICP

    def test_higher_hit_ratio_lowers_latency(self):
        low = run_overhead_experiment(
            ProxyMode.NO_ICP, target_hit_ratio=0.25, **SMALL
        )
        high = run_overhead_experiment(
            ProxyMode.NO_ICP, target_hit_ratio=0.45, **SMALL
        )
        assert high.hit_ratio > low.hit_ratio + 0.1
        assert high.mean_latency < low.mean_latency


@pytest.fixture(scope="module")
def replay_trace():
    return generate_trace(
        SyntheticTraceConfig(
            name="replay",
            num_requests=1500,
            num_clients=24,
            num_documents=500,
            mean_size=2048,
            max_size=64 * 1024,
            mod_probability=0.002,
            seed=31,
        )
    )


class TestReplayExperiment:
    def test_remote_hits_occur(self, replay_trace):
        result = run_replay_experiment(
            replay_trace, ProxyMode.SC_ICP, clients_per_proxy=4
        )
        assert result.remote_hit_ratio > 0.0

    def test_sc_icp_latency_not_worse_than_no_icp(self, replay_trace):
        # Table IV: "The enhanced ICP protocol lowers the client latency
        # slightly compared to the no-ICP case" (remote hits beat the
        # 1-second origin delay).
        base = run_replay_experiment(
            replay_trace, ProxyMode.NO_ICP, clients_per_proxy=4
        )
        sc = run_replay_experiment(
            replay_trace, ProxyMode.SC_ICP, clients_per_proxy=4
        )
        assert sc.mean_latency <= base.mean_latency * 1.02
        assert sc.hit_ratio > base.hit_ratio

    def test_sc_icp_udp_far_below_icp(self, replay_trace):
        icp = run_replay_experiment(
            replay_trace, ProxyMode.ICP, clients_per_proxy=4
        )
        # At this tiny scale the prototype's packet-fill policy (342
        # flips per update) barely fires, so use the threshold policy
        # to exercise the paper's recommended configuration.
        sc = run_replay_experiment(
            replay_trace,
            ProxyMode.SC_ICP,
            clients_per_proxy=4,
            proxy_config=SimProxyConfig(
                update_policy=ThresholdUpdatePolicy(0.01)
            ),
        )
        # Total UDP drops; the per-miss query flood specifically drops
        # by a large factor (updates dominate SC-ICP's residual UDP at
        # this tiny cache scale -- a scale artifact, see EXPERIMENTS.md).
        assert (sc.udp_sent + sc.udp_received) < (
            icp.udp_sent + icp.udp_received
        )
        # (Both sides still include the keep-alive baseline, which is
        # why the divisor is 4 rather than the paper's larger factor.)
        sc_query_udp = sc.udp_sent - sc.dirupdates_sent
        assert sc_query_udp < icp.udp_sent / 4
        # Hit ratios stay close (the paper: "only slightly decreasing
        # the total hit ratio").
        assert sc.hit_ratio > icp.hit_ratio - 0.05

    def test_round_robin_assignment_runs(self, replay_trace):
        result = run_replay_experiment(
            replay_trace,
            ProxyMode.SC_ICP,
            clients_per_proxy=4,
            assignment="round-robin",
        )
        assert result.requests == len(replay_trace)

    def test_unknown_assignment_rejected(self, replay_trace):
        with pytest.raises(ConfigurationError):
            run_replay_experiment(
                replay_trace, ProxyMode.NO_ICP, assignment="zigzag"
            )
