"""Fan independent simulation cells across worker processes.

A paper-style experiment sweep -- Figs. 5-8, Table III, the threshold
sweep of Fig. 2 -- is a grid of *cells*: one trace replayed under one
``(summary, update policy)`` configuration.
Cells never share mutable state (each builds its own caches and
summaries, over a trace generated from a deterministic seed), so the
grid is embarrassingly parallel.

:class:`ExperimentCell` names one cell; :func:`run_cell` executes it;
:func:`run_cells` runs a batch either serially (``jobs <= 1``) or on a
``multiprocessing`` pool, one cell per dispatch, returning results in
input order.  Because
trace generation and replay are deterministic, a parallel run is
bit-exact with a serial run of the same cells -- the equivalence tests
assert exactly that.  A serial batch hands each cell the workload the
previous cell generated when both name the same one, so a grid ordered
by workload generates each workload once.

Workers inherit the parent's interpreter state where the platform forks
(Linux); on spawn platforms each worker imports the package fresh.
Either way every worker holds its own process-wide
:class:`~repro.core.position_cache.HashPositionCache`, so cells sharing
a worker warm-start their hash derivations.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.sharing.results import SharingResult
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_summary_sharing,
)
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy, UpdatePolicy
from repro.traces.workloads import make_workload

__all__ = [
    "ExperimentCell",
    "fig5_grid",
    "run_cell",
    "run_cells",
]


@dataclass(frozen=True)
class ExperimentCell:
    """One independent simulation: a trace under one configuration.

    The cell is a frozen, picklable value object -- everything a worker
    process needs to reproduce the simulation from scratch.  Two equal
    cells produce identical :class:`~repro.sharing.results.SharingResult`
    objects in any process (deterministic trace generation + replay).

    Attributes
    ----------
    workload:
        A :data:`~repro.traces.workloads.WORKLOAD_PRESETS` name.
    summary:
        The summary representation; ``None`` is the ICP message
        baseline.
    update_policy:
        When a proxy ships its summary changes (the paper's 1% threshold
        by default); ignored by the ICP baseline.  Policies are frozen
        values, so a cell pickles with its policy.
    scale:
        Workload scale factor (1.0 = the preset's laptop scale).
    """

    workload: str
    summary: Optional[SummaryConfig] = SummaryConfig()
    update_policy: UpdatePolicy = ThresholdUpdatePolicy()
    scale: float = 1.0

    @property
    def representation(self) -> str:
        """The summary's figure-legend label (``bloom-16``, ``icp``...)."""
        return "icp" if self.summary is None else self.summary.label()

    def label(self) -> str:
        """Short human-readable cell name for logs and benchmark rows."""
        policy = self.update_policy
        trigger = (
            f"t={policy.threshold:g}"
            if isinstance(policy, ThresholdUpdatePolicy)
            else policy.label()
        )
        return f"{self.workload}/{self.representation}/{trigger}"


class _LastWorkload:
    """A one-entry memo: the previous cell's workload, generated and sized."""

    def __init__(self) -> None:
        self._key: Optional[Tuple[str, float]] = None
        self._workload: tuple = ()

    def get(self, cell: ExperimentCell) -> tuple:
        """``(trace, groups, capacity, doc_size)`` for *cell*.

        Only a cell naming another workload or scale than the previous
        one generates a trace.
        """
        from repro.experiments import cache_sizes

        key = (cell.workload, cell.scale)
        if key != self._key:
            trace, groups = make_workload(cell.workload, scale=cell.scale)
            self._workload = (trace, groups) + cache_sizes(trace, groups)
            self._key = key
        return self._workload


def run_cell(cell: ExperimentCell) -> SharingResult:
    """Execute one cell from scratch and return its result.

    Top-level (hence picklable) and self-contained: the function a pool
    worker runs.
    """
    return _run_cell(cell, _LastWorkload())


def _run_cell(cell: ExperimentCell, workloads: _LastWorkload) -> SharingResult:
    """Replay *cell* over its workload's trace, taken from *workloads*.

    The caches are sized by :func:`repro.experiments.cache_sizes`.
    """
    trace, groups, capacity, doc_size = workloads.get(cell)
    if cell.summary is None:
        return simulate_icp(trace, groups, capacity)
    cfg = SummarySharingConfig(
        summary=cell.summary,
        update_policy=cell.update_policy,
        expected_doc_size=doc_size,
    )
    return simulate_summary_sharing(trace, groups, capacity, cfg)


def run_cells(
    cells: Sequence[ExperimentCell], jobs: int = 1
) -> List[SharingResult]:
    """Run *cells*, serially or on *jobs* worker processes.

    Results come back in the order of *cells* regardless of completion
    order.  ``jobs <= 1`` runs in-process with no pool (the code a
    worker executes, with one workload memo across the batch, so cells
    ordered by workload, as :func:`fig5_grid` orders them, generate
    each workload once); ``jobs`` above the cell count is clamped.
    """
    cells = list(cells)
    jobs = min(jobs, len(cells))
    if jobs <= 1:
        workloads = _LastWorkload()
        return [_run_cell(cell, workloads) for cell in cells]
    with multiprocessing.Pool(processes=jobs) as pool:
        # imap hands out one cell per dispatch (cells run hundreds of
        # milliseconds and up, so the load stays balanced) and yields
        # results in input order.
        return list(pool.imap(run_cell, cells))


def fig5_grid(
    workloads: Iterable[str],
    load_factors: Iterable[int] = (8, 16, 32),
    thresholds: Iterable[float] = (0.01,),
    include_icp: bool = True,
    scale: float = 1.0,
) -> List[ExperimentCell]:
    """The Fig. 5-8 grid: representations x workloads x thresholds.

    Per workload and threshold: exact-directory, server-name, then one
    Bloom cell per load factor -- the order of the figures' legends;
    then one ICP baseline cell per workload when *include_icp*.
    :func:`repro.experiments.representations` and
    :func:`~repro.experiments.table3` run this grid too.
    """
    summaries = [
        SummaryConfig(kind="exact-directory"),
        SummaryConfig(kind="server-name"),
    ] + [
        SummaryConfig(kind="bloom", load_factor=load_factor)
        for load_factor in load_factors
    ]
    grid: List[ExperimentCell] = []
    for workload in workloads:
        for threshold in thresholds:
            policy = ThresholdUpdatePolicy(threshold)
            grid += [
                ExperimentCell(workload, summary, policy, scale)
                for summary in summaries
            ]
        if include_icp:
            grid.append(ExperimentCell(workload, None, scale=scale))
    return grid
