"""Cross-module integration tests.

These check that independently implemented layers agree with each
other: the trace-driven simulator, the discrete-event simulator, and
the asyncio prototype all implement the same protocol, so on the same
workload their headline numbers must line up.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.proxy.cluster as cluster_module
from repro.errors import ConfigurationError
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.proxy import ProxyCluster, ProxyConfig, ProxyMode
from repro.proxy.client import ReplayReport
from repro.sharing import (
    SummarySharingConfig,
    simulate_simple_sharing,
    simulate_summary_sharing,
)
from repro.simulation import experiment
from repro.simulation.experiment import run_replay_experiment
from repro.simulation.nodes import SimProxyConfig
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

NUM_PROXIES = 4


@pytest.fixture(scope="module")
def workload():
    return generate_trace(
        SyntheticTraceConfig(
            name="integration",
            num_requests=2000,
            num_clients=16,
            num_documents=600,
            mean_size=1536,
            max_size=32 * 1024,
            mod_probability=0.0,
            seed=404,
        )
    )


CAPACITY = 400_000


class TestSimulatorsAgree:
    def test_trace_sim_and_des_hit_ratios_match(self, workload):
        """The analytic trace simulator and the discrete-event cluster
        run the same caches over the same requests: their hit ratios
        must agree closely (the DES adds timing, not policy)."""
        analytic = simulate_simple_sharing(
            workload, NUM_PROXIES, CAPACITY
        )
        des = run_replay_experiment(
            workload,
            ProxyMode.ICP,
            num_proxies=NUM_PROXIES,
            clients_per_proxy=1,  # serial per proxy: same order
            proxy_config=SimProxyConfig(cache_capacity=CAPACITY),
        )
        assert des.hit_ratio == pytest.approx(
            analytic.total_hit_ratio, abs=0.02
        )

    def test_trace_sim_and_prototype_agree(self, workload):
        """The asyncio prototype over real sockets lands near the
        trace simulator's hit ratio for the same SC-ICP config."""
        cfg = SummarySharingConfig(
            summary=SummaryConfig(kind="bloom", load_factor=8),
            update_policy=ThresholdUpdatePolicy(0.02),
            expected_doc_size=1536,
        )
        analytic = simulate_summary_sharing(
            workload, NUM_PROXIES, CAPACITY, cfg
        )

        async def run_prototype():
            base = ProxyConfig(
                summary=SummaryConfig(kind="bloom", load_factor=8),
                expected_doc_size=1536,
                update_policy=ThresholdUpdatePolicy(0.02),
            )
            async with ProxyCluster(
                num_proxies=NUM_PROXIES,
                mode=ProxyMode.SC_ICP,
                cache_capacity=CAPACITY,
                base_config=base,
            ) as cluster:
                return await cluster.replay(
                    workload, clients_per_proxy=1
                )

        prototype = asyncio.run(run_prototype())
        # The prototype's freshness model is presence-based and its
        # update timing is asynchronous, so allow a few points of slack.
        assert prototype.total_hit_ratio == pytest.approx(
            analytic.total_hit_ratio, abs=0.05
        )
        # Both find a meaningful number of remote hits.
        proto_remote = sum(
            s.remote_hits for s in prototype.proxy_stats
        )
        assert proto_remote > 0
        assert analytic.remote_hits > 0


class TestEnginesDealAlike:
    """The DES and the live cluster deal a trace through one function."""

    @pytest.mark.parametrize("assignment", ["client-bound", "round-robin"])
    def test_both_engines_receive_identical_client_streams(
        self, workload, monkeypatch, assignment
    ):
        dealt = {}

        class RecordingClient(experiment.SimClient):
            def __init__(self, engine, proxy, requests, network):
                requests = list(requests)
                dealt.setdefault("des", []).append((proxy.index, requests))
                super().__init__(engine, proxy, requests, network)

        async def record(assignments):
            dealt["live"] = [
                (index, list(requests)) for index, requests in assignments
            ]
            return ReplayReport()

        monkeypatch.setattr(experiment, "SimClient", RecordingClient)
        monkeypatch.setattr(cluster_module, "replay_concurrently", record)
        monkeypatch.setattr(
            ProxyCluster, "driver_for", lambda self, index: index
        )
        trace = workload.head(300)
        run_replay_experiment(
            trace,
            ProxyMode.NO_ICP,
            num_proxies=3,
            clients_per_proxy=2,
            assignment=assignment,
            origin_delay=0.0,
        )
        asyncio.run(
            ProxyCluster(num_proxies=3).replay(
                trace, assignment=assignment, clients_per_proxy=2
            )
        )
        assert dealt["live"] == dealt["des"]
        assert [index for index, _ in dealt["des"]] == [0, 0, 1, 1, 2, 2]
        assert sum(len(r) for _, r in dealt["des"]) == len(trace)

    def test_both_engines_reject_an_unknown_assignment(self, workload):
        with pytest.raises(ConfigurationError):
            run_replay_experiment(
                workload, ProxyMode.NO_ICP, assignment="zigzag"
            )
        with pytest.raises(ConfigurationError):
            asyncio.run(
                ProxyCluster(num_proxies=2).replay(
                    workload, assignment="zigzag"
                )
            )
