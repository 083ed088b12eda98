"""The experiment runners' settable values, pinned.

Every ``ExperimentCell`` field and every parameter of a public runner in
:mod:`repro.experiments` or :mod:`repro.simulation.parallel` is a knob
that changes a paper table.  A knob earns its place only when a caller
outside the tests sets it (the CLI, an example, the benchmark harness)
and it says something no other parameter says.  Adding one needs that
second caller and a line in CHANGES.md; then update the pins below.
Removing one is always welcome.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro import experiments
from repro.simulation import parallel

EXPERIMENT_CELL_FIELDS = [
    "workload",
    "summary",
    "update_policy",
    "scale",
]

RUNNER_PARAMETERS = {
    experiments.cache_sizes: ["trace", "groups", "cache_fraction"],
    experiments.table1: ["workloads", "scale"],
    experiments.fig1: ["workload", "scale", "cache_fractions"],
    experiments.table2: [
        "target_hit_ratio",
        "clients_per_proxy",
        "requests_per_client",
        "num_proxies",
    ],
    experiments.fig2: ["workload", "scale", "thresholds"],
    experiments.representations: [
        "workload",
        "scale",
        "threshold",
        "include_icp",
        "representation",
        "update_policy",
        "jobs",
    ],
    experiments.table3: ["workloads", "scale", "threshold", "jobs"],
    experiments.fig4: [],
    experiments.table45: [
        "assignment",
        "workload",
        "scale",
        "num_requests",
        "num_proxies",
        "clients_per_proxy",
    ],
    experiments.scalability: ["proxy_counts"],
    experiments.dissemination: [
        "workload",
        "scale",
        "seed",
        "num_requests",
        "num_proxies",
        "policies",
        "fanout",
        "cache_capacity",
        "threshold",
        "trace_path",
    ],
    experiments.prototype: [],
    experiments.hierarchy: ["workload", "scale"],
    experiments.alternatives: ["workload", "scale", "threshold"],
    experiments.metrics_snapshot: [
        "workload",
        "scale",
        "threshold",
        "representation",
        "update_policy",
    ],
    parallel.fig5_grid: [
        "workloads",
        "load_factors",
        "thresholds",
        "include_icp",
        "scale",
    ],
    parallel.run_cells: ["cells", "jobs"],
}


def test_experiment_cell_fields_are_pinned():
    fields = [field.name for field in dataclasses.fields(parallel.ExperimentCell)]
    assert fields == EXPERIMENT_CELL_FIELDS


def test_runner_parameters_are_pinned():
    for runner, expected in RUNNER_PARAMETERS.items():
        parameters = list(inspect.signature(runner).parameters)
        assert parameters == expected, runner.__name__
