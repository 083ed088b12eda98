"""Benchmark workloads and the live load generator.

:mod:`repro.benchmarkkit.wisconsin` mirrors the Wisconsin Proxy
Benchmark 1.0 that Section IV describes: clients issue requests with no
think time, "the document sizes follow the Pareto distribution with
alpha = 1.1", each client's stream has a tunable inherent hit ratio via
temporal locality, and -- for the overhead experiments -- "the requests
issued by different clients do not overlap; there is no remote cache
hit among proxies."  :mod:`repro.benchmarkkit.loadgen` replays those
streams against a live cluster.  Performance claims are measured by
``bench/run.py``, not from here.
"""
