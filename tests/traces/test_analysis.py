"""Tests for the trace characterization toolkit."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.traces.analysis import (
    fit_zipf_alpha,
    group_overlap_matrix,
    interreference_percentiles,
    sharing_potential,
    size_statistics,
)
from repro.traces.binary import BinaryTraceReader
from repro.traces.model import Request, Trace
from repro.traces.stats import compute_stats, mean_cacheable_size
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.traces.workloads import make_workload, pack_workload


def zipf_only_config(alpha: float) -> SyntheticTraceConfig:
    """Popularity-only sampling: no recency or server locality."""
    return SyntheticTraceConfig(
        num_requests=30_000,
        num_clients=20,
        num_documents=5_000,
        zipf_alpha=alpha,
        locality_probability=0.0,
        server_locality=0.0,
        mod_probability=0.0,
        seed=17,
    )


class TestZipfFit:
    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    def test_recovers_generator_exponent(self, alpha):
        trace = generate_trace(zipf_only_config(alpha))
        fitted = fit_zipf_alpha(trace)
        assert fitted == pytest.approx(alpha, abs=0.15)

    def test_orders_traces_by_skew(self):
        flat = fit_zipf_alpha(generate_trace(zipf_only_config(0.4)))
        skewed = fit_zipf_alpha(generate_trace(zipf_only_config(1.1)))
        assert skewed > flat + 0.3

    def test_needs_enough_documents(self):
        trace = Trace(requests=[Request(0.0, 0, "u", 1)])
        with pytest.raises(ConfigurationError):
            fit_zipf_alpha(trace)

    def test_head_fraction_validation(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            fit_zipf_alpha(tiny_trace, head_fraction=0.0)


class TestSizeStats:
    def test_hand_computed(self):
        trace = Trace(
            requests=[
                Request(float(i), 0, f"u{i}", size)
                for i, size in enumerate([100, 200, 300, 400, 1000])
            ]
        )
        stats = size_statistics(trace)
        assert stats.count == 5
        assert stats.mean == pytest.approx(400)
        assert stats.median == pytest.approx(300)
        assert stats.max == 1000

    def test_distinct_documents_counted_once(self):
        trace = Trace(
            requests=[
                Request(0.0, 0, "u", 100),
                Request(1.0, 0, "u", 100),
                Request(2.0, 0, "v", 300),
            ]
        )
        assert size_statistics(trace).mean == pytest.approx(200)

    def test_pareto_tail_index_near_generator_alpha(self):
        trace = generate_trace(
            replace(
                zipf_only_config(0.7),
                mean_size=4096,
                max_size=16 * 2**20,
            )
        )
        stats = size_statistics(trace)
        # Hill estimator over a capped Pareto(1.1): expect ~1.0-1.6.
        assert 0.7 < stats.tail_index < 2.0

    def test_hill_threshold_is_largest_size_outside_tail(self):
        # k = 2: the tail is {800, 1600} and X(k+1) = 400, so the mean
        # log excess is (log 2 + log 4) / 2 = 1.5 log 2.
        trace = Trace(
            requests=[
                Request(float(i), 0, f"u{i}", size)
                for i, size in enumerate([100, 200, 400, 800, 1600])
            ]
        )
        assert size_statistics(trace).tail_index == pytest.approx(
            1 / (1.5 * math.log(2))
        )

    def test_hill_undefined_without_size_below_tail(self):
        trace = Trace(requests=[Request(0.0, 0, "u", 500)])
        assert math.isnan(size_statistics(trace).tail_index)

    def test_hill_undefined_for_flat_tail(self):
        trace = Trace(
            requests=[Request(float(i), 0, f"u{i}", 500) for i in range(50)]
        )
        assert math.isnan(size_statistics(trace).tail_index)

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            size_statistics(Trace())


class TestOverlap:
    def test_matrix_hand_computed(self, tiny_trace):
        # Group 0 refs {/1, /2}; group 1 refs {/1, /2, /3}.
        matrix = group_overlap_matrix(tiny_trace, 2)
        assert matrix[0][0] == 1.0
        assert matrix[1][1] == 1.0
        assert matrix[0][1] == pytest.approx(1.0)  # both of g0's in g1
        assert matrix[1][0] == pytest.approx(2 / 3)

    def test_validation(self, tiny_trace):
        with pytest.raises(ConfigurationError):
            group_overlap_matrix(tiny_trace, 0)


class TestSharingPotential:
    def test_hand_computed(self, tiny_trace):
        # g1's first /1 (already seen by g0) and g1's first /2: 2 of 6.
        assert sharing_potential(tiny_trace, 2) == pytest.approx(2 / 6)

    def test_upper_bounds_simulated_remote_hits(self):
        # The bound "ignores capacity and staleness": use infinite
        # caches and a churn-free trace (version churn lets a group
        # re-fetch a document it already saw, creating remote hits the
        # first-reference counter does not model).
        from repro.sharing.schemes import simulate_simple_sharing

        trace = generate_trace(
            replace(zipf_only_config(0.8), locality_probability=0.4)
        )
        potential = sharing_potential(trace, 4)
        result = simulate_simple_sharing(trace, 4, 10**9)
        assert potential > 0
        assert result.remote_hits / result.requests <= potential + 1e-9

    def test_empty_trace(self):
        assert sharing_potential(Trace(), 2) == 0.0


class TestInterreference:
    def test_hand_computed(self):
        trace = Trace(
            requests=[
                Request(0.0, 0, "a", 1),
                Request(1.0, 0, "b", 1),
                Request(2.0, 0, "a", 1),  # distance 2
                Request(3.0, 0, "a", 1),  # distance 1
            ]
        )
        result = interreference_percentiles(trace, percentiles=(50,))
        assert result[50] == pytest.approx(1.5)

    def test_no_reuse_gives_nan(self):
        trace = Trace(
            requests=[Request(float(i), 0, f"u{i}", 1) for i in range(4)]
        )
        result = interreference_percentiles(trace, percentiles=(50,))
        assert math.isnan(result[50])

    def test_locality_shortens_distances(self):
        near = generate_trace(
            replace(zipf_only_config(0.7), locality_probability=0.7)
        )
        far = generate_trace(zipf_only_config(0.7))
        assert (
            interreference_percentiles(near)[50]
            < interreference_percentiles(far)[50]
        )


class TestPackedTraceInput:
    """A packed ``.sctr`` file measures exactly as the trace it holds.

    ``examples/workload_analysis.py --trace`` characterizes a packed
    file through :class:`BinaryTraceReader`; every measurement must
    equal the one over the in-memory trace of the same preset.
    """

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        trace, groups = make_workload("nlanr", scale=0.2)
        path = tmp_path_factory.mktemp("packed") / "nlanr.sctr"
        pack_workload("nlanr", path, scale=0.2)
        with BinaryTraceReader(path) as reader:
            yield trace, reader, groups

    @pytest.mark.parametrize(
        "measure",
        [
            pytest.param(lambda t, g: compute_stats(t), id="compute_stats"),
            pytest.param(
                lambda t, g: mean_cacheable_size(t), id="mean_cacheable_size"
            ),
            pytest.param(lambda t, g: fit_zipf_alpha(t), id="fit_zipf_alpha"),
            pytest.param(
                lambda t, g: size_statistics(t), id="size_statistics"
            ),
            pytest.param(
                lambda t, g: interreference_percentiles(t),
                id="interreference_percentiles",
            ),
            pytest.param(group_overlap_matrix, id="group_overlap_matrix"),
            pytest.param(sharing_potential, id="sharing_potential"),
        ],
    )
    def test_reader_measures_as_the_trace(self, sources, measure):
        trace, reader, groups = sources
        assert len(reader) == len(trace)
        assert measure(reader, groups) == measure(trace, groups)
