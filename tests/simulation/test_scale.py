"""Tests for the measured Section V-F run and dissemination policies."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.simulation.nodes import SimProxyConfig
from repro.simulation.scale import (
    DISSEMINATION_POLICIES,
    run_scale_experiment,
)
from repro.traces.binary import BinaryTraceReader, pack_trace
from repro.traces.model import Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

NUM_PROXIES = 8


@pytest.fixture(scope="module")
def scale_trace() -> Trace:
    return generate_trace(
        SyntheticTraceConfig(
            name="scale-test",
            num_requests=2500,
            num_clients=NUM_PROXIES * 4,
            num_documents=900,
            mean_size=2048,
            max_size=64 * 1024,
            mod_probability=0.01,
            seed=7,
        )
    )


@pytest.fixture(scope="module")
def results(scale_trace):
    return {
        policy: run_scale_experiment(
            scale_trace,
            num_proxies=NUM_PROXIES,
            dissemination=policy,
            fanout=2,
            cache_capacity=128 * 1024,
            origin_delay=0.1,
        )
        for policy in DISSEMINATION_POLICIES
    }


class TestScaleRun:
    def test_every_request_served(self, scale_trace, results):
        for result in results.values():
            assert result.requests == len(scale_trace)

    def test_udp_conservation(self, results):
        # Every datagram sent is received by exactly one node.
        for result in results.values():
            assert result.udp_sent == result.udp_received
            assert result.udp_sent > 0

    def test_policies_agree_on_cache_outcomes(self, results):
        unicast = results["unicast"]
        hierarchy = results["hierarchy"]
        # Relayed updates arrive a few hops later, so peer summaries lag
        # slightly and round counts can drift by a round or two -- but
        # the aggregate behaviour must stay the same.
        assert hierarchy.hit_ratio == pytest.approx(
            unicast.hit_ratio, rel=0.05
        )
        assert hierarchy.update_messages == pytest.approx(
            unicast.update_messages, rel=0.02
        )

    def test_update_rounds_ship_to_every_peer(self, results):
        # One update round = N-1 messages under either policy (unicast
        # sends them all itself; hierarchy splits them across relays).
        for result in results.values():
            assert result.update_messages % (NUM_PROXIES - 1) == 0

    def test_hierarchy_bounds_sender_load(self, results):
        # The relay tree spreads the updater's fan-out over peers, so
        # the busiest sender ships no more updates than under all-pairs
        # unicast (per-updater rotation spreads relay duty).
        assert (
            results["hierarchy"].sender_max_dirupdates
            <= results["unicast"].sender_max_dirupdates
        )

    def test_prediction_attached(self, results):
        for result in results.values():
            assert result.predicted.summary_memory_bytes > 0
            assert result.predicted.update_messages_per_request > 0

    def test_memory_accounting_positive(self, results):
        for result in results.values():
            assert result.summary_memory_bytes > 0
            assert result.peak_rss_bytes > 0


class TestFeedShapes:
    def test_reader_feed_matches_trace_feed(self, scale_trace, tmp_path):
        path = str(tmp_path / "scale.sctr")
        pack_trace(scale_trace, path)
        in_memory = run_scale_experiment(
            scale_trace,
            num_proxies=4,
            cache_capacity=128 * 1024,
            origin_delay=0.1,
        )
        with BinaryTraceReader(path) as reader:
            streamed = run_scale_experiment(
                reader,
                num_proxies=4,
                cache_capacity=128 * 1024,
                origin_delay=0.1,
            )
        assert streamed.requests == in_memory.requests
        assert streamed.hit_ratio == in_memory.hit_ratio
        assert streamed.update_messages == in_memory.update_messages
        assert streamed.udp_sent == in_memory.udp_sent

    def test_one_shot_generator_rejected(self, scale_trace):
        with pytest.raises(ConfigurationError, match="re-iterable"):
            run_scale_experiment(
                (r for r in scale_trace.requests), num_proxies=4
            )


class TestValidation:
    def test_unknown_policy_rejected(self, scale_trace):
        with pytest.raises(ConfigurationError, match="dissemination"):
            run_scale_experiment(
                scale_trace, num_proxies=4, dissemination="multicast"
            )

    def test_config_rejects_unknown_dissemination(self):
        with pytest.raises(ConfigurationError):
            SimProxyConfig(dissemination="broadcast")

    def test_config_rejects_bad_fanout(self):
        with pytest.raises(ConfigurationError):
            SimProxyConfig(
                dissemination="hierarchy", dissemination_fanout=0
            )

    def test_fanout_one_degenerates_to_chain(self, scale_trace):
        # fanout=1 is a relay chain -- the extreme tree still delivers
        # every update exactly once.
        chain = run_scale_experiment(
            scale_trace,
            num_proxies=4,
            dissemination="hierarchy",
            fanout=1,
            cache_capacity=128 * 1024,
            origin_delay=0.1,
        )
        unicast = run_scale_experiment(
            scale_trace,
            num_proxies=4,
            dissemination="unicast",
            cache_capacity=128 * 1024,
            origin_delay=0.1,
        )
        assert chain.update_messages % 3 == 0
        assert chain.update_messages == pytest.approx(
            unicast.update_messages, rel=0.02
        )
        assert chain.hit_ratio == pytest.approx(
            unicast.hit_ratio, rel=0.05
        )
        assert chain.udp_sent == chain.udp_received
