"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures,
prints it, and writes it to ``benchmarks/results/<name>.txt`` so the
output survives pytest's capture.

``REPRO_BENCH_SCALE`` (default 2.0) scales the synthetic workloads.
Larger scales move the message-economy results toward the paper's
regime (see EXPERIMENTS.md for the scale law) at the cost of runtime;
0.2 gives a fast smoke run.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path
from typing import Dict

from repro import experiments
from repro.analysis.tables import format_table
from repro.sharing.results import SharingResult

#: Workload scale for all trace-driven benchmarks.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "2"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def write_result(name: str, text: str) -> None:
    """Print *text* and persist it under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")


@functools.lru_cache(maxsize=None)
def representation_sweep(workload: str) -> Dict[str, SharingResult]:
    """The Section V-D sweep for one workload, computed once per run.

    Figs. 5-8 and Table III all read from this sweep, run at the
    paper's 1% update threshold.
    """
    return experiments.representations(workload, scale=SCALE)


def sweep_table(
    workload: str, columns, headers, title: str
) -> str:
    """Render selected columns of a workload's sweep as a table."""
    results = representation_sweep(workload)
    rows = []
    for label, result in results.items():
        rows.append((label,) + tuple(col(result) for col in columns))
    return format_table(("summary",) + tuple(headers), rows, title=title)
