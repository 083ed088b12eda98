"""Table II: overhead of ICP in the four-proxy benchmark.

The paper's setup: 4 proxies, 120 clients issuing 200 requests each
with no think time, origin replies delayed 1 s, no request overlap
between clients (no remote hits -- ICP's worst case), at inherent hit
ratios of 25% and 45%.
"""

from __future__ import annotations

import pytest

from repro import experiments
from repro.analysis.tables import format_table
from repro.proxy.config import ProxyMode

from benchmarks._shared import write_result


@pytest.mark.parametrize("hit_ratio", [0.25, 0.45])
def test_table2_icp_overhead(benchmark, hit_ratio):
    results = benchmark.pedantic(
        experiments.table2,
        kwargs={
            "target_hit_ratio": hit_ratio,
            "clients_per_proxy": 30,
            "requests_per_client": 200,
        },
        rounds=1,
        iterations=1,
    )
    base = results[ProxyMode.NO_ICP]
    icp = results[ProxyMode.ICP]
    sc = results[ProxyMode.SC_ICP]

    # No remote hits: identical hit ratios in all three configurations.
    assert (
        round(base.hit_ratio, 3)
        == round(icp.hit_ratio, 3)
        == round(sc.hit_ratio, 3)
    )

    # ICP's UDP factor lands in the paper's ballpark (73x-90x).
    factor = round(experiments.udp_factor(icp, base))
    assert 40 < factor < 150

    # ICP inflates CPU and latency; SC-ICP stays near no-ICP.
    icp_overhead = icp.overhead_vs(base)
    sc_overhead = sc.overhead_vs(base)
    icp_user = round(icp_overhead["user_cpu"], 1)
    sc_user = round(sc_overhead["user_cpu"], 1)
    assert icp_user > 10
    assert sc_user < icp_user / 2
    icp_latency = round(icp_overhead["latency"], 1)
    sc_latency = round(sc_overhead["latency"], 1)
    assert icp_latency > 2
    assert sc_latency < icp_latency

    headers, rows = experiments.table2_rows(results)
    write_result(
        f"table2_hit{int(hit_ratio * 100)}",
        format_table(
            headers,
            rows,
            title=(
                "Table II: ICP overhead, 4 proxies, inherent hit ratio "
                f"{hit_ratio:g} (120 clients x 200 requests)"
            ),
        ),
    )
