"""Tests for the parallel experiment runner (repro.simulation.parallel)."""

from __future__ import annotations

import pickle

import pytest

from repro import experiments
from repro.errors import ConfigurationError
from repro.simulation import parallel
from repro.simulation.parallel import (
    ExperimentCell,
    fig5_grid,
    run_cell,
    run_cells,
)
from repro.summaries import IntervalUpdatePolicy, SummaryConfig

#: Small but non-trivial: ~3 cells over a scaled-down 4-proxy workload.
SCALE = 0.2


def _signature(result):
    """The Fig. 5-8 numbers a cell must reproduce exactly."""
    return (
        result.scheme,
        result.requests,
        result.local_hits,
        result.remote_hits,
        result.false_hits,
        result.false_misses,
        result.total_hit_ratio,
        result.messages.total_messages,
        result.messages.total_bytes,
    )


class TestExperimentCell:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ExperimentCell(
                workload="nlanr", summary=SummaryConfig(kind="quantum")
            )

    def test_labels(self):
        assert (
            ExperimentCell(
                workload="nlanr", summary=SummaryConfig(load_factor=16)
            ).label()
            == "nlanr/bloom-16/t=0.01"
        )
        assert (
            ExperimentCell(workload="dec", summary=None).label()
            == "dec/icp/t=0.01"
        )

    def test_cells_are_hashable_and_comparable(self):
        a = ExperimentCell(workload="nlanr")
        b = ExperimentCell(workload="nlanr")
        assert a == b
        assert hash(a) == hash(b)

    def test_run_cell_deterministic(self):
        cell = ExperimentCell(workload="nlanr", scale=SCALE)
        assert _signature(run_cell(cell)) == _signature(run_cell(cell))

    def test_cell_carries_its_update_policy(self):
        cell = ExperimentCell(
            workload="nlanr",
            scale=SCALE,
            update_policy=IntervalUpdatePolicy(300),
        )
        assert pickle.loads(pickle.dumps(cell)) == cell
        assert cell.label() == "nlanr/bloom-8/interval=300s"
        assert run_cell(cell).scheme == "summary/bloom-8/interval=300s"


class TestFig5Grid:
    def test_shape(self):
        grid = fig5_grid(
            ["nlanr", "upisa"], load_factors=(8, 16), thresholds=(0.01,)
        )
        # Per workload: exact + server-name + 2 blooms + icp = 5.
        assert len(grid) == 10
        assert {c.representation for c in grid} == {
            "exact-directory",
            "server-name",
            "bloom-8",
            "bloom-16",
            "icp",
        }

    def test_icp_once_per_workload_across_thresholds(self):
        grid = fig5_grid(
            ["nlanr"], load_factors=(8,), thresholds=(0.01, 0.1)
        )
        assert sum(1 for c in grid if c.summary is None) == 1


class TestRunCells:
    def test_empty(self):
        assert run_cells([], jobs=4) == []

    def test_parallel_matches_serial_bit_for_bit(self):
        """The headline guarantee: jobs=N is bit-exact with jobs=1.

        A small Fig. 5-style grid both ways; hit ratios, false-hit
        counts, and message totals must be identical, in input order.
        """
        cells = fig5_grid(
            ["nlanr"], load_factors=(8,), thresholds=(0.01,), scale=SCALE
        )
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert [_signature(r) for r in serial] == [
            _signature(r) for r in parallel
        ]

    def test_results_come_back_in_input_order(self):
        cells = [
            ExperimentCell(workload="nlanr", summary=None, scale=SCALE),
            ExperimentCell(workload="nlanr", scale=SCALE),
        ]
        results = run_cells(cells, jobs=2)
        assert results[0].scheme == "icp"
        assert results[1].scheme.startswith("summary/bloom")


class TestExperimentsIntegration:
    def test_representations_jobs_matches_serial(self):
        serial = experiments.representations(
            "nlanr", scale=SCALE, threshold=0.01
        )
        parallel = experiments.representations(
            "nlanr", scale=SCALE, threshold=0.01, jobs=2
        )
        assert list(serial) == list(parallel)
        for label in serial:
            assert _signature(serial[label]) == _signature(parallel[label])

    def test_representations_jobs_matches_serial_under_a_custom_policy(
        self,
    ):
        policy = IntervalUpdatePolicy(300)
        serial = experiments.representations(
            "nlanr", scale=SCALE, update_policy=policy
        )
        parallel_run = experiments.representations(
            "nlanr", scale=SCALE, update_policy=policy, jobs=2
        )
        assert list(serial) == list(parallel_run)
        for label in serial:
            assert serial[label] == parallel_run[label]
        assert serial["bloom-8"].scheme.endswith("/interval=300s")

    def test_in_process_sweep_generates_the_workload_once(
        self, monkeypatch
    ):
        calls = []
        make_workload = parallel.make_workload

        def counting(*args, **kwargs):
            calls.append(args)
            return make_workload(*args, **kwargs)

        monkeypatch.setattr(parallel, "make_workload", counting)
        results = experiments.representations("nlanr", scale=SCALE)
        assert len(results) == 6
        assert calls == [("nlanr",)]

    def test_table3_jobs_matches_serial(self):
        serial = experiments.table3(workloads=("nlanr",), scale=SCALE)
        parallel = experiments.table3(
            workloads=("nlanr",), scale=SCALE, jobs=2
        )
        assert serial == parallel

