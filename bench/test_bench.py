"""Self-test of the benchmark: ``python -m pytest bench -q``.

Outside the tier-1 ``testpaths`` on purpose -- it boots clusters and
takes most of a minute.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_layer_has_its_two_metrics_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        assert f"{layer}.self_us_per_op" in declared
        assert f"{layer}.calls_per_op" in declared


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_reports_every_declared_metric(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0
    if trace:
        profile = json.loads(
            (BENCH / "results" / f"trace-{workload}.json").read_text()
        )
        assert profile["hottest"] and profile["edges"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = run_benchmark("replay-exact", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_pinned_replays_agree_on_cache_behaviour():
    expected = json.loads((BENCH / "expected.json").read_text())
    bloom, exact = expected["replay-bloom"], expected["replay-exact"]
    for counter in ("requests", "local_hits", "local_stale_hits",
                    "bytes_requested"):
        assert bloom[counter] == exact[counter]


@pytest.mark.parametrize(
    "path, layer",
    [
        ("/x/src/repro/core/bloom.py", "core.bloom"),
        ("/x/src/repro/core/hashing.py", "core.hashing"),
        ("/x/src/repro/core/not_written_yet.py", "core.bloom"),
        ("/x/src/repro/proxy/http.py", "proxy.http"),
        ("/x/src/repro/proxy/dataplane/handlers.py", "proxy.server"),
        ("/x/src/repro/sharing/summary_sharing.py", "sharing"),
        ("/x/src/repro/new_package/thing.py", "other"),
        ("/x/src/repro/cli.py", "other"),
        ("/usr/lib/python3.11/asyncio/streams.py", "runtime"),
    ],
)
def test_layer_map_is_by_prefix_and_total(path, layer):
    assert layers.layer_of(path) == layer


def test_compare_verdicts():
    metric = SPEC["end_to_end"][1]  # a timing metric
    assert metric["name"] == "throughput_ops_s"
    key = ("live-hit", metric["name"])
    steady = {key: [100.0, 101.0, 99.0, 100.0]}
    noisy = {key: [100.0, 160.0, 60.0, 100.0, 130.0]}

    def verdict(a, b):
        (row,) = compare.compare(a, b)
        return row["verdict"]

    assert verdict(steady, steady) == "ok"
    assert verdict(steady, {key: [50.0]}) == "worse"
    assert verdict(steady, {key: [200.0]}) == "ok"  # higher is better
    assert verdict(noisy, {key: [50.0]}) == "unresolved"
