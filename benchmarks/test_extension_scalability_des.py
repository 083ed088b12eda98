"""Scalability measured, not extrapolated: overhead vs cluster size.

Section V-F argues ICP's overhead grows with the number of proxies
(every miss generates N-1 inquiries) while summary cache's stays small.
This experiment runs the discrete-event cluster at N = 2, 4, 8 proxies
with a fixed per-proxy client population and measures each protocol's
*per-proxy* UDP and CPU overhead over the no-ICP baseline.
"""

from __future__ import annotations

from repro import experiments
from repro.experiments import protocol_udp_per_request
from repro.analysis.tables import format_table
from repro.proxy.config import ProxyMode

from benchmarks._shared import write_result

PROXY_COUNTS = (2, 4, 8)


def measure(num_proxies: int):
    return experiments.table2(
        target_hit_ratio=0.25,
        clients_per_proxy=15,
        requests_per_client=120,
        num_proxies=num_proxies,
    )


def test_scalability_measured_in_des(benchmark):
    all_results = benchmark.pedantic(
        lambda: {n: measure(n) for n in PROXY_COUNTS},
        rounds=1,
        iterations=1,
    )

    icp_udp_per_request = {}
    sc_udp_per_request = {}
    icp_cpu_overhead = {}
    sc_cpu_overhead = {}
    for n, results in all_results.items():
        base = results[ProxyMode.NO_ICP]
        icp = results[ProxyMode.ICP]
        sc = results[ProxyMode.SC_ICP]
        icp_udp_per_request[n] = protocol_udp_per_request(icp, base)
        sc_udp_per_request[n] = protocol_udp_per_request(sc, base)
        icp_cpu_overhead[n] = icp.overhead_vs(base)["user_cpu"]
        sc_cpu_overhead[n] = sc.overhead_vs(base)["user_cpu"]

    # ICP's traffic per request grows ~linearly with N-1...
    growth = icp_udp_per_request[8] / icp_udp_per_request[2]
    assert growth > 4  # (8-1)/(2-1) = 7 ideally; allow slack
    # ...while SC-ICP's stays an order of magnitude below at every N.
    for n in PROXY_COUNTS:
        assert sc_udp_per_request[n] < icp_udp_per_request[n] / 5
    # ICP's CPU overhead climbs with N; SC-ICP's stays low and flat.
    assert icp_cpu_overhead[8] > icp_cpu_overhead[2] * 2
    assert sc_cpu_overhead[8] < 8

    headers, rows = experiments.des_scaling_rows(all_results)
    write_result(
        "extension_scalability_des",
        format_table(
            headers,
            rows,
            title=(
                "Scalability measured in the DES (Section V-F's claim): "
                "per-request protocol traffic and CPU overhead vs "
                "cluster size"
            ),
        ),
    )
