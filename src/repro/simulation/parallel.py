"""Fan independent simulation cells across worker processes.

A paper-style experiment sweep -- Figs. 5-8, Table III, the threshold
sweep of Fig. 2 -- is a grid of *cells*: one trace replayed under one
``(scheme, representation, load factor, update policy)`` configuration.
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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sharing.results import SharingResult
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_summary_sharing,
)
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy, UpdatePolicy
from repro.traces.binary import BinaryTraceReader
from repro.traces.workloads import make_workload, pack_workload, workload_config

__all__ = [
    "ExperimentCell",
    "fig5_grid",
    "pack_grid_traces",
    "run_cell",
    "run_cells",
]

#: Summary kinds a cell may name, plus the ICP baseline.
_CELL_KINDS = ("exact-directory", "server-name", "bloom", "icp")


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
    kind:
        Summary representation (``"exact-directory"``, ``"server-name"``,
        ``"bloom"``) or ``"icp"`` for the message baseline.
    load_factor:
        Bloom bits per expected document (ignored by other kinds).
    update_policy:
        When a proxy ships its summary changes (the paper's 1% threshold
        by default); ignored by ``"icp"``.  Policies are frozen values,
        so a cell pickles with its policy.
    scale:
        Workload scale factor (1.0 = the preset's laptop scale).
    seed:
        Overrides the workload preset's generator seed; ``None`` keeps
        the preset's fixed seed.  Deterministic either way.
    trace_path:
        Optional path to a packed binary trace (``.sctr``).  When set,
        the worker mmaps this file instead of regenerating the synthetic
        trace -- the pack-once/replay-many path for grids where many
        cells share one workload.  Replay is bit-exact with the
        generated trace (same request stream), so results are unchanged.
    """

    workload: str
    kind: str = "bloom"
    load_factor: int = 8
    update_policy: UpdatePolicy = ThresholdUpdatePolicy()
    scale: float = 1.0
    seed: Optional[int] = None
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _CELL_KINDS:
            raise ConfigurationError(
                f"unknown cell kind {self.kind!r}; expected one of "
                f"{_CELL_KINDS}"
            )

    @property
    def representation(self) -> str:
        """The summary's figure-legend label (``bloom-16``, ``icp``...)."""
        if self.kind == "bloom":
            return f"bloom-{self.load_factor}"
        return self.kind

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
        self._key: Optional[Tuple[str, float, Optional[int]]] = None
        self._workload: tuple = ()

    def get(self, cell: ExperimentCell) -> tuple:
        """``(trace, groups, capacity, doc_size)`` for *cell*.

        Only a cell naming another workload, scale or seed than the
        previous one generates a trace.
        """
        from repro.experiments import cache_sizes

        key = (cell.workload, cell.scale, cell.seed)
        if key != self._key:
            trace, groups = make_workload(
                cell.workload, scale=cell.scale, seed=cell.seed
            )
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
    """Replay *cell* over its trace: from *workloads*, or its packed file.

    The caches are sized by :func:`repro.experiments.cache_sizes`.
    """
    from repro.experiments import cache_sizes

    reader = None
    try:
        if cell.trace_path is not None:
            _, groups = workload_config(
                cell.workload, scale=cell.scale, seed=cell.seed
            )
            trace = reader = BinaryTraceReader(cell.trace_path)
            capacity, doc_size = cache_sizes(trace, groups)
        else:
            trace, groups, capacity, doc_size = workloads.get(cell)
        if cell.kind == "icp":
            return simulate_icp(trace, groups, capacity)
        summary = (
            SummaryConfig(kind="bloom", load_factor=cell.load_factor)
            if cell.kind == "bloom"
            else SummaryConfig(kind=cell.kind)
        )
        cfg = SummarySharingConfig(
            summary=summary,
            update_policy=cell.update_policy,
            expected_doc_size=doc_size,
        )
        return simulate_summary_sharing(trace, groups, capacity, cfg)
    finally:
        if reader is not None:
            reader.close()


def pack_grid_traces(
    cells: Sequence[ExperimentCell], directory
) -> List[ExperimentCell]:
    """Pack each distinct workload of *cells* once; point cells at it.

    ``fig5_grid`` produces many cells per workload, and every worker
    regenerated the identical synthetic trace from its seed.  This packs
    one ``.sctr`` per distinct ``(workload, scale, seed)`` into
    *directory* and returns the cells with ``trace_path`` set, so the
    whole grid shares one on-disk trace per workload via the page cache.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: Dict[Tuple[str, float, Optional[int]], str] = {}
    packed: List[ExperimentCell] = []
    for cell in cells:
        key = (cell.workload.lower(), cell.scale, cell.seed)
        path = paths.get(key)
        if path is None:
            stem = f"{key[0]}-s{cell.scale:g}"
            if cell.seed is not None:
                stem += f"-seed{cell.seed}"
            path = str(directory / f"{stem}.sctr")
            pack_workload(
                cell.workload, path, scale=cell.scale, seed=cell.seed
            )
            paths[key] = path
        packed.append(replace(cell, trace_path=path))
    return packed


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
    grid: List[ExperimentCell] = []
    for workload in workloads:
        for threshold in thresholds:
            policy = ThresholdUpdatePolicy(threshold)
            grid += [
                ExperimentCell(workload, kind, update_policy=policy, scale=scale)
                for kind in ("exact-directory", "server-name")
            ]
            grid += [
                ExperimentCell(workload, "bloom", load_factor, policy, scale)
                for load_factor in load_factors
            ]
        if include_icp:
            grid.append(ExperimentCell(workload, "icp", scale=scale))
    return grid
