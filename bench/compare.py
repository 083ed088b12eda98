"""Compare two records written by ``run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): the median of each side's
runs, how much worse B is as a share of A (negative is better), the
metric's bound from ``BENCHMARK.json``, and a verdict:

- ``ok``          B is no worse than A by more than the bound;
- ``worse``       it is;
- ``unresolved``  A's own runs spread wider than the bound (distance
                  between their quartiles over their median; the range
                  when A has fewer than four runs), so this pair cannot
                  tell ``ok`` from ``worse``.

Exits 1 if any row is ``worse``.  ``compare.py A.json A.json`` prints
the spreads alone, which is how the bounds were calibrated.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

Samples = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Samples:
    """``{(workload, metric): [value per untraced run]}``."""
    samples: Samples = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        for metric, entry in run["metrics"].items():
            samples.setdefault((run["workload"], metric), []).append(
                entry["value"]
            )
    return samples


def spread(values: List[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median; None for one run."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def compare(a: Samples, b: Samples) -> List[dict]:
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            before = statistics.median(a[key])
            after = statistics.median(b[key])
            change = (after - before) / abs(before) if before else 0.0
            worse_by = -change if metric["better"] == "higher" else change
            noise = spread(a[key])
            if noise is not None and noise > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append(
                {
                    "workload": workload, "metric": metric["name"],
                    "unit": metric["unit"], "a": before, "b": after,
                    "runs": (len(a[key]), len(b[key])),
                    "worse_by": worse_by, "spread": noise,
                    "bound": metric["bound"], "verdict": verdict,
                }
            )
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':13s} {'metric':18s} {'A':>12s} {'B':>12s} "
        f"{'worse by':>9s} {'A spread':>9s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        noise = "-" if row["spread"] is None else f"{row['spread']:.2%}"
        lines.append(
            f"{row['workload']:13s} {row['metric']:18s} "
            f"{row['a']:12.5g} {row['b']:12.5g} {row['worse_by']:+9.2%} "
            f"{noise:>9s} {row['bound']:6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    rows = compare(load(sys.argv[1]), load(sys.argv[2]))
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
