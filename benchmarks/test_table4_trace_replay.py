"""Table IV: trace replay through the simulated 4-proxy cluster,
client-bound assignment (the paper's experiment 3: 80 clients, the
first 24,000 UPisa requests, clients keep their proxy binding)."""

from __future__ import annotations

from repro import experiments
from repro.analysis.tables import format_table

from benchmarks._shared import SCALE, write_result


def run_replay(assignment: str):
    return experiments.table45(
        assignment=assignment,
        workload="upisa",
        scale=SCALE,
        num_requests=24_000,
        num_proxies=4,
        clients_per_proxy=20,
    )


def check_replay(results):
    runs = results.values()
    hr = {r.mode: round(r.hit_ratio, 3) for r in runs}
    remote = {r.mode: round(r.remote_hit_ratio, 3) for r in runs}
    latency = {r.mode: round(r.mean_latency, 3) for r in runs}
    udp = {r.mode: r.udp_messages for r in runs}

    # Cooperation finds remote hits; no-ICP cannot.
    assert remote["no-icp"] == 0.0
    assert remote["icp"] > 0.01
    assert remote["sc-icp"] > 0.01

    # SC-ICP keeps nearly ICP's hit ratio with far less UDP.
    assert hr["sc-icp"] > hr["no-icp"]
    assert hr["sc-icp"] > hr["icp"] - 0.05
    assert udp["sc-icp"] < udp["icp"] / 2

    # Remote hits beat the 1-second origin delay: cooperating modes do
    # not increase latency over no-ICP by more than a sliver (Table IV:
    # SC-ICP actually lowers it slightly).
    assert latency["sc-icp"] <= latency["no-icp"] * 1.05


def test_table4_trace_replay_client_bound(benchmark):
    results = benchmark.pedantic(
        run_replay, args=("client-bound",), rounds=1, iterations=1
    )
    check_replay(results)
    headers, rows = experiments.table45_rows(results)
    write_result(
        "table4_trace_replay",
        format_table(
            headers,
            rows,
            title=(
                "Table IV: UPisa-like replay, client-bound assignment "
                "(experiment 3)"
            ),
        ),
    )
